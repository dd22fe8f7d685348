package sim

// farCycle is the "never" sentinel for scheduled cycles; it exceeds any
// horizon by orders of magnitude.
const farCycle = 1 << 30

// reentryGap is the minimum head start (in cycles) that makes deferring
// a detected future window overlap worthwhile: committing to jump mode
// and rematerialising at the interaction cycle costs about as much as a
// handful of exact kernel cycles.
const reentryGap = 3

// flight is a message in analytic free flow: its future trajectory is
// fully determined, so only scheduled endpoints and (for messages that
// spent time in the kernel) a state snapshot are stored. Flights exist
// only while no occupancy windows overlap, which is exactly the regime
// in which the cycle kernel would grant every request immediately.
//
// Two kinds share the struct. A fresh flight (gen == false) was
// released in jump mode and follows the from-release staircase, whose
// closed forms live in the lat/wl tables. A generalized flight
// (gen == true) was converted out of the cycle kernel mid-path: snap
// holds its per-link flit counts at conversion time tc, and win holds
// the projected [first, last] crossing cycles per path link, computed
// by flightT from the max-plus dependency closure of the snapshot.
type flight struct {
	li      int // local stream index
	seq     int
	t0      int // release cycle
	tc      int // conversion cycle (== t0 for fresh flights)
	deliver int // cycle during which the tail crosses the final link
	drop    int // deadline-drop cycle (DropLate), or -1
	// acct is the number of cycles since t0 whose statistics — progress
	// cycles and per-link flit crossings — are already booked: zero for
	// a message released in jump mode, tc-t0 for one that spent its
	// first cycles in the kernel (which accounts as it goes). The flit
	// prefix already booked is snap itself for generalized flights.
	acct int

	gen  bool
	stc  bool  // snapshot is the pure from-release staircase (never stalled)
	hvc  bool  // header held its VC (granted, not yet crossed) at tc
	h0   int   // header link at tc, capped at H-1
	arr  int64 // kernel arrival stamp at tc, for materialise ordering
	snap []int // per-link flits crossed at start of cycle tc
	win  []int // per-link projected first/last crossing cycles (2 ints each)
}

// stairCrossed is the from-release free-flow trajectory: the number of
// flits that have crossed path channel i at the start of cycle t0+a.
// With buffer depth >= 2 the pipeline streams one flit per cycle per
// link; with depth 1 each link sustains every other cycle (except a
// single-hop path, where no downstream buffer constrains the source).
func stairCrossed(a, i, C, depth, H int) int {
	var v int
	if depth >= 2 || H == 1 {
		v = a - i
	} else {
		v = (a - i + 1) / 2 // ceil((a-i)/2) for a >= i
	}
	if v < 0 {
		return 0
	}
	if v > C {
		return C
	}
	return v
}

// stairTime inverts stairCrossed: the cycle during which flit k
// (1-based) crosses path link j in from-release free flow starting at
// t0. It is the closed form of stairT on a pure staircase snapshot.
func stairTime(t0, k, j, depth, H int) int {
	switch {
	case H == 1:
		return t0 + k - 1
	case depth >= 2:
		return t0 + k - 1 + j
	default:
		return t0 + 2*(k-1) + j
	}
}

// flightT returns the cycle during which flit k (1-based, k > snap[j])
// crosses path link j in solo free flow from f's snapshot. The solo
// kernel saturates three lower bounds — a flit arrives before it
// crosses, each link crosses one flit per cycle, and a flit needs a
// free downstream buffer slot — so the earliest schedule is the
// longest dependency path from any boundary cell (snap[j0]+1, j0) at
// base time tc. Path steps cost one cycle each: forward (0,+1), next
// flit (+1,0), and buffer back-pressure (+depth,-1); maximising over
// the step mix gives, per boundary link j0 with e = max(0, j0-j)
// upstream hops, a length of (j-j0)+(k-k0)-(depth-2)e for depth >= 2
// (reachable when k-k0 >= depth*e) and (j-j0)+2(k-k0) for depth 1
// (reachable when k-k0 >= e). A single-hop path has no downstream
// buffer, so its only term is k-k0. Every cell on such a path is
// uncrossed at tc (induction over the step kinds using the buffer
// invariant snap[j]-snap[j+1] <= depth), so no constraint is phantom.
func (c *comp) flightT(f *flight, k, j, C, H int) int {
	if f.stc {
		return stairTime(f.t0, k, j, c.depth, H)
	}
	return c.stairT(f.snap, f.tc, k, j, H)
}

// stairT is flightT on a raw state snapshot (per-link flits crossed at
// the start of cycle tc), used both by flights and by the park-wake
// bounds, which project directly from live kernel messages.
func (c *comp) stairT(snap []int, tc, k, j, H int) int {
	d := c.depth
	best := 0 // j0 == j always contributes k - snap[j] - 1 >= 0
	for j0 := 0; j0 < H; j0++ {
		k0 := snap[j0] + 1
		if k < k0 {
			continue
		}
		e := j0 - j
		if e < 0 {
			e = 0
		}
		var n int
		switch {
		case H == 1:
			n = k - k0
		case d == 1:
			if k-k0 < e {
				continue
			}
			n = (j - j0) + 2*(k-k0)
		default:
			if k-k0 < d*e {
				continue
			}
			n = (j - j0) + (k - k0) - (d-2)*e
		}
		if n > best {
			best = n
		}
	}
	return tc + best
}

// crossedAt inverts flightT: the number of flits that have crossed
// path link j at the start of cycle t. Each boundary term caps k at
// the largest value whose path length fits in t-1-tc; a term whose
// first reachable k already misses the budget caps just below its
// activation threshold instead (smaller k carries no constraint from
// that boundary).
func (c *comp) crossedAt(f *flight, j, t, C, H int) int {
	d := c.depth
	sj := f.snap[j]
	A := t - 1 - f.tc
	if A < 0 {
		return sj
	}
	if f.stc {
		return stairCrossed(t-f.t0, j, C, d, H)
	}
	kmax := C
	for j0 := 0; j0 < H; j0++ {
		k0 := f.snap[j0] + 1
		if k0 > C {
			continue
		}
		var bound, act int
		switch {
		case H == 1:
			bound, act = k0+A, k0
		case d == 1:
			num := A - (j - j0)
			q := num / 2
			if num < 0 && num%2 != 0 {
				q--
			}
			bound = k0 + q
			act = k0
			if j0 > j {
				act += j0 - j
			}
		default:
			e := j0 - j
			if e < 0 {
				e = 0
			}
			bound = k0 + A - (j - j0) + (d-2)*e
			act = k0 + d*e
		}
		if bound < act {
			bound = act - 1
		}
		if bound < kmax {
			kmax = bound
		}
	}
	if kmax < sj {
		return sj
	}
	return kmax
}

func (c *comp) newFlight() *flight {
	if k := len(c.fpool); k > 0 {
		f := c.fpool[k-1]
		c.fpool = c.fpool[:k-1]
		return f
	}
	return &flight{}
}

// jumpStep advances virtual time to the next event — release, delivery,
// deadline drop, or end of run — and processes every event scheduled
// there. Event order within one cycle mirrors the kernel's phase order:
// drops happen before releases (dropLate frees state before VC
// assignment), deliveries conceptually complete during the cycle. A
// release whose occupancy windows intersect any in-flight message's
// windows is not consumed; the component re-enters the exact cycle
// kernel at that cycle instead.
func (c *comp) jumpStep() {
	cycles := c.cfg.Cycles
	t := cycles
	for li := range c.streams {
		if c.nextRel[li] < t {
			t = c.nextRel[li]
		}
	}
	for _, f := range c.flights {
		e := f.deliver
		if f.drop >= 0 && f.drop < e {
			e = f.drop
		}
		if e < t {
			t = e
		}
	}
	if c.reentry < t {
		t = c.reentry
	}
	if t >= cycles {
		c.now = cycles
		return
	}
	if t == c.reentry {
		// The scheduled first interaction of two admitted messages:
		// resume exact stepping. Any release, drop, or delivery due
		// this same cycle is the kernel's to perform.
		c.enterCycleMode(t)
		return
	}
	if c.cfg.DropLate {
		kept := c.flights[:0]
		for _, f := range c.flights {
			if f.drop == t {
				c.dropFlight(f)
				c.fpool = append(c.fpool, f)
			} else {
				kept = append(kept, f)
			}
		}
		c.flights = kept
	}
	for li := range c.streams {
		if c.nextRel[li] != t {
			continue
		}
		cc := c.conflicts(li, t)
		if cc <= t {
			c.enterCycleMode(t)
			return
		}
		if cc < c.reentry {
			c.reentry = cc
		}
		c.addFlight(li, t)
	}
	kept := c.flights[:0]
	for _, f := range c.flights {
		if f.deliver == t {
			c.deliverFlight(f)
			c.fpool = append(c.fpool, f)
		} else {
			kept = append(kept, f)
		}
	}
	c.flights = kept
	c.now = t + 1
}

// flightWin returns flight f's occupancy window on its path link p:
// the cycles of its first and last remaining crossings there. Fresh
// flights use the staircase forms; generalized flights use the
// projected windows, which are empty (first > last) on links the tail
// already cleared before conversion.
func (c *comp) flightWin(f *flight, p int) (int, int) {
	if !f.gen {
		s := f.t0 + p
		return s, s + c.wl[f.li] - 1
	}
	return f.win[2*p], f.win[2*p+1]
}

// conflicts returns the first cycle at which a release of local stream
// li at cycle t would interact with an in-flight or parked message —
// the earliest cycle where it and a flight both occupy a shared link,
// or where it reaches a link whose VC state a parked message pins — or
// farCycle if no such cycle exists. Two free-flowing messages are
// independent until both are present at a common link, so solo free
// flow is exact strictly before the returned cycle. Against a parked
// message the criterion is the VC rule: only a strictly-higher-VC
// visitor passes through a parked hold unaffected and non-affecting
// (it takes a different VC, and where the parked message is itself a
// candidate it loses to the higher VC — precisely the coverage
// parkWakeArb counts on).
func (c *comp) conflicts(li, t int) int {
	cc := farCycle
	wlB := c.wl[li]
	for _, f := range c.flights {
		for _, p := range c.pairs[li][f.li] {
			bs := t + p.pa
			as, ae := c.flightWin(f, p.pb)
			if bs <= ae && as <= bs+wlB-1 {
				s := bs
				if as > s {
					s = as
				}
				if s < cc {
					cc = s
				}
			}
		}
	}
	if len(c.parked) > 0 {
		fv := 0
		if c.schemeVC {
			fv = c.prio[li]
		}
		for _, m := range c.parked {
			for _, p := range c.pairs[li][m.li] {
				if held := m.vcHeld[p.pb]; held < 0 || fv > held {
					continue
				}
				if s := t + p.pa; s < cc {
					cc = s
				}
			}
		}
	}
	return cc
}

// addFlight releases one message analytically.
func (c *comp) addFlight(li, t int) {
	st := c.streams[li]
	c.res.PerStream[st.ID].Generated++
	f := c.newFlight()
	f.li, f.seq, f.t0, f.tc = li, c.nextSeq[li], t, t
	f.deliver = t + c.lat[li] - 1
	f.drop = -1
	f.acct = 0
	f.gen = false
	f.stc = false
	// dropLate fires at t0+D+1; the message is still in flight then
	// only if its (free-flow) latency is at least D+2. A latency of
	// exactly D+1 is a deadline miss, not a drop.
	if c.cfg.DropLate && c.lat[li] >= st.Deadline+2 {
		f.drop = t + st.Deadline + 1
	}
	c.nextRelease(li)
	c.flights = append(c.flights, f)
}

// deliverFlight accounts a free-flow delivery: the kernel would have
// recorded one progress cycle for every cycle of the flight except the
// delivery cycle itself (deliver removes the message before the stall
// accounting runs), and the not-yet-booked flit crossings per link.
func (c *comp) deliverFlight(f *flight) {
	st := c.streams[f.li]
	ps := &c.res.PerStream[st.ID]
	ps.Delivered++
	lat := f.deliver - f.t0 + 1
	if f.t0 >= c.cfg.Warmup {
		ps.observe(lat, st.Deadline)
		ps.ProgressCycles += lat - 1 - f.acct
	}
	H, C := st.Path.Hops(), st.Length
	for i, l := range c.pathLinks[f.li] {
		if f.gen {
			l.flits += C - f.snap[i]
		} else {
			l.flits += C - stairCrossed(f.acct, i, C, c.depth, H)
		}
	}
}

// dropFlight accounts a deadline drop at cycle f.drop: crossings and
// progress up to the start of that cycle (dropLate removes the message
// before any flit moves or stall is accounted).
func (c *comp) dropFlight(f *flight) {
	c.creditFlight(f, f.drop)
	c.res.PerStream[c.streams[f.li].ID].Dropped++
}

// creditPark books the stall cycles parked message m accumulated up to
// the start of cycle t. The regime is constant while frozen, so the
// stall kind observed at park time holds for every skipped cycle.
func (c *comp) creditPark(m *message, t int) {
	if n := t - m.parkFrom; n > 0 && m.genTime >= c.cfg.Warmup {
		ps := &c.res.PerStream[m.s.ID]
		if m.candPrev {
			ps.ArbStallCycles += n
		} else {
			ps.VCStallCycles += n
		}
	}
}

// creditFlight books f's not-yet-accounted activity up to the start of
// cycle t: the per-link flit crossings beyond the prefix the kernel
// already booked, and — a free-flowing message advances some flit
// every single cycle — one progress cycle per cycle in flight.
func (c *comp) creditFlight(f *flight, t int) {
	st := c.streams[f.li]
	H, C := st.Path.Hops(), st.Length
	if f.gen {
		for i := 0; i < H; i++ {
			if n := c.crossedAt(f, i, t, C, H) - f.snap[i]; n > 0 {
				c.pathLinks[f.li][i].flits += n
			}
		}
	} else {
		a := t - f.t0
		for i := 0; i < H; i++ {
			if n := stairCrossed(a, i, C, c.depth, H) - stairCrossed(f.acct, i, C, c.depth, H); n > 0 {
				c.pathLinks[f.li][i].flits += n
			}
		}
	}
	if f.t0 >= c.cfg.Warmup {
		c.res.PerStream[st.ID].ProgressCycles += t - f.t0 - f.acct
	}
}

// headerAtCycle returns the link f's header occupies at the start of
// cycle t, capped at H-1 (the cap mirrors the last arrival event a
// message can see: entering its final link).
func (c *comp) headerAtCycle(f *flight, t int) int {
	st := c.streams[f.li]
	H, C := st.Path.Hops(), st.Length
	for j := 0; j < H; j++ {
		if c.crossedAt(f, j, t, C, H) == 0 {
			return j
		}
	}
	return H - 1
}

// flightOrder is the sort key reproducing the oracle's stamp-issuing
// order at materialisation. Kernel-era events (a generalized flight
// whose header has not advanced since conversion) keep their original
// kernel stamps and precede every analytic event, which happened at or
// after the last kernel exit; analytic events order by (cycle, phase,
// tiebreak) — release (phase 0, ties by the release loop's stream
// order) or header arrival (phase 2 = moveFlits, ties by the scan
// ordinal of the link just crossed, unique because two headers cannot
// cross the same link in the same cycle).
type flightOrder struct {
	kern  bool
	arr   int64
	cycle int
	phase int
	tie   int
}

func (c *comp) orderKey(f *flight, t int) flightOrder {
	st := c.streams[f.li]
	H, C := st.Path.Hops(), st.Length
	if f.gen {
		h := c.headerAtCycle(f, t)
		if h == f.h0 {
			return flightOrder{kern: true, arr: f.arr}
		}
		return flightOrder{cycle: c.flightT(f, 1, h-1, C, H), phase: 2, tie: int(c.pathOrds[f.li][h-1])}
	}
	a := t - f.t0
	i := H - 1
	if a < i {
		i = a
	}
	if i >= 1 {
		return flightOrder{cycle: f.t0 + i - 1, phase: 2, tie: int(c.pathOrds[f.li][i-1])}
	}
	return flightOrder{cycle: f.t0, phase: 0, tie: f.li}
}

func orderLess(a, b flightOrder) bool {
	if a.kern != b.kern {
		return a.kern
	}
	if a.kern {
		return a.arr < b.arr
	}
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.tie < b.tie
}

// enterCycleMode materialises every flight into exact kernel state at
// the start of cycle t and switches the component to cycle stepping.
// The release that triggered the fallback has not been consumed; the
// kernel's own release phase will issue it this same cycle, after the
// (earlier-stream) flights released at t, which is the oracle's order.
func (c *comp) enterCycleMode(t int) {
	c.mode = modeCycle
	c.now = t
	c.nextTry = 0
	c.reentry = farCycle
	// Unpark frozen messages first: book the stall cycles the kernel
	// would have accumulated, restore their VC ownership and pending registration, and
	// return them to the active list. Their original arrival stamps are
	// older than any stamp issued below, preserving arbitration order.
	for _, m := range c.parked {
		c.creditPark(m, t)
		for i, v := range m.vcHeld {
			if v >= 0 {
				m.links[i].vcs[v].owner = m
			}
		}
		if h := m.headerAt(); h < m.hops() && m.vcHeld[h] < 0 {
			c.addPending(m.links[h], m)
		}
		c.active = append(c.active, m)
	}
	c.parked = c.parked[:0]
	// Stamp issuing order, computed with scratch buffers and an
	// insertion sort: re-entries are frequent and flight counts tiny,
	// so per-entry allocation and sort.Slice overhead would dominate
	// the round trip.
	n := len(c.flights)
	if cap(c.ordKeys) < n {
		c.ordKeys = make([]flightOrder, n, 2*n)
		c.ordIdx = make([]int, n, 2*n)
		c.ordStamps = make([]int64, n, 2*n)
	}
	keys, idx, stamps := c.ordKeys[:n], c.ordIdx[:n], c.ordStamps[:n]
	for i, f := range c.flights {
		idx[i] = i
		keys[i] = c.orderKey(f, t)
	}
	for i := 1; i < n; i++ {
		v := idx[i]
		j := i
		for j > 0 && orderLess(keys[v], keys[idx[j-1]]) {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = v
	}
	for _, fi := range idx {
		c.stamp++
		stamps[fi] = c.stamp
	}
	// Materialise in flight (= release) order so the kernel's active
	// list comes out in the order the oracle maintains it.
	for fi, f := range c.flights {
		c.materialize(f, stamps[fi], t)
		c.fpool = append(c.fpool, f)
	}
	c.flights = c.flights[:0]
}

// materialize reconstructs the exact kernel state of one free-flowing
// message at the start of cycle t: flit counts, the held-VC range
// (under every arbiter a free-flowing header is granted the VC its
// scheme assigns: its own priority level for Preemptive/Li, VC 0 for
// the single-channel schemes), the pending header registration, and
// the already-earned statistics. A generalized flight materialised at
// its own conversion cycle restores the granted-but-uncrossed header
// VC instead of re-pending the header.
func (c *comp) materialize(f *flight, stamp int64, t int) {
	st := c.streams[f.li]
	m := c.newMessage(f.li, f.seq, f.t0)
	m.arrival = stamp
	H, C := st.Path.Hops(), st.Length
	if f.gen {
		for i := 0; i < H; i++ {
			m.crossed[i] = c.crossedAt(f, i, t, C, H)
		}
	} else {
		a := t - f.t0
		for i := 0; i < H; i++ {
			m.crossed[i] = stairCrossed(a, i, C, c.depth, H)
		}
	}
	vc := 0
	if c.schemeVC {
		vc = m.prio
	}
	lo := 0
	for lo < H && m.crossed[lo] >= C {
		lo++
	}
	m.lo = lo
	for i := lo; i < H; i++ {
		if m.crossed[i] > 0 && m.crossed[i] < C {
			m.vcHeld[i] = vc
			c.pathLinks[f.li][i].vcs[vc].owner = m
		}
	}
	h := lo
	for h < H && m.crossed[h] > 0 {
		h++
	}
	if h < H {
		if f.gen && f.hvc && t == f.tc {
			m.vcHeld[h] = vc
			c.pathLinks[f.li][h].vcs[vc].owner = m
		} else {
			c.addPending(m.links[h], m)
		}
	}
	c.active = append(c.active, m)
	c.creditFlight(f, t)
}

// freeState reports whether m's kernel state is free-flow-consistent:
// the shape jump mode can represent and project. Every partially
// crossed link must hold exactly the VC the arbitration scheme grants
// a free-flowing header (a Li-arbitrated message squeezed onto a lower
// VC under contention, for example, is not representable), and the
// header may at most hold that same VC on its current link. This is a
// state check, not a history check: a message in a representable state
// evolves identically from here on however it got there.
func (c *comp) freeState(m *message) bool {
	vc := 0
	if c.schemeVC {
		vc = m.prio
	}
	C := m.s.Length
	h := -1
	for i := 0; i < len(m.crossed); i++ {
		cr := m.crossed[i]
		switch {
		case cr >= C:
			if m.vcHeld[i] != -1 {
				return false
			}
		case cr > 0:
			if m.vcHeld[i] != vc {
				return false
			}
		default:
			if h < 0 {
				h = i
			}
			if m.vcHeld[i] != -1 && (i != h || m.vcHeld[i] != vc) {
				return false
			}
		}
	}
	return true
}

// convert builds a generalized flight from a free-flow-consistent
// kernel message at the current cycle, projecting its delivery and
// per-link occupancy windows from the state snapshot.
func (c *comp) convert(m *message) *flight {
	st := c.streams[m.li]
	H, C := st.Path.Hops(), st.Length
	f := c.newFlight()
	f.li, f.seq, f.t0, f.tc = m.li, m.seq, m.genTime, c.now
	f.acct = c.now - m.genTime
	f.arr = m.arrival
	f.gen = true
	f.snap = append(f.snap[:0], m.crossed...)
	f.win = f.win[:0]
	f.hvc = false
	f.h0 = H - 1
	// A message that never stalled sits exactly on the from-release
	// staircase; its projections collapse to the closed forms, saving
	// the O(hops) boundary maximisation per window bound.
	a := c.now - m.genTime
	f.stc = true
	for j := 0; j < H; j++ {
		if f.snap[j] != stairCrossed(a, j, C, c.depth, H) {
			f.stc = false
			break
		}
	}
	for j := 0; j < H; j++ {
		if f.snap[j] >= C {
			f.win = append(f.win, farCycle, -farCycle)
			continue
		}
		// The window must cover the whole VC-hold interval, not just
		// the crossing span: a message catching up behind its own
		// buffer back-pressure holds a VC on j before its first
		// remaining crossing there, and that hold blocks same-VC
		// assignment and strict-priority arbitration for others.
		first := c.flightT(f, f.snap[j]+1, j, C, H)
		if m.vcHeld[j] >= 0 {
			first = c.now
		}
		f.win = append(f.win, first, c.flightT(f, C, j, C, H))
	}
	for j := m.lo; j < H; j++ {
		if f.snap[j] == 0 {
			f.h0 = j
			f.hvc = m.vcHeld[j] >= 0
			break
		}
	}
	f.deliver = f.win[2*H-1]
	f.drop = -1
	if c.cfg.DropLate {
		if dc := f.t0 + st.Deadline + 1; f.deliver >= dc {
			f.drop = dc
		}
	}
	return f
}

// msgStair reports whether advancing active m sits exactly on the
// from-release staircase (it never stalled), which makes its window
// projections collapse to the closed forms.
func (c *comp) msgStair(m *message) bool {
	a := c.now - m.genTime
	C := m.s.Length
	H := len(m.crossed)
	for j, cr := range m.crossed {
		if cr != stairCrossed(a, j, C, c.depth, H) {
			return false
		}
	}
	return true
}

// msgWin projects the occupancy window of advancing active m on its
// path link j directly from live kernel state — bound for bound what
// convert would store in the flight (including the VC-hold extension
// of the window start). Empty (first > last) once the tail cleared j.
func (c *comp) msgWin(m *message, stair bool, j int) (int, int) {
	C := m.s.Length
	H := len(m.crossed)
	if m.crossed[j] >= C {
		return farCycle, -farCycle
	}
	if m.vcHeld[j] >= 0 {
		if stair {
			return c.now, stairTime(m.genTime, C, j, c.depth, H)
		}
		return c.now, c.stairT(m.crossed, c.now, C, j, H)
	}
	if stair {
		return stairTime(m.genTime, m.crossed[j]+1, j, c.depth, H),
			stairTime(m.genTime, C, j, c.depth, H)
	}
	return c.stairT(m.crossed, c.now, m.crossed[j]+1, j, H),
		c.stairT(m.crossed, c.now, C, j, H)
}

// tryRefresh attempts the transition back to analytic stepping. Each
// active is either advancing (it moved a flit last cycle) or statically
// blocked. Advancing messages must be free-flow-representable and
// convert to generalized flights; statically blocked messages may be
// parked — frozen verbatim, with a proven wake cycle before which no
// flit of theirs can move and no decision involving them can change.
// The component commits when the first cycle any interaction could
// occur (flight-flight window overlap, a flight or release touching a
// parked hold, or a parked wake) is far enough out to be worth the
// round trip; exact stepping resumes at that cycle via c.reentry.
// Attempted whenever a message retired and otherwise at the scheduled
// nextTry cycle. With a positive router latency the free-flow forms do
// not apply and the component stays in cycle mode for good.
func (c *comp) tryRefresh() {
	if !c.jumpable {
		return
	}
	nPark := 0
	for _, m := range c.active {
		if m.advPrev {
			if !c.freeState(m) {
				// Only a Li-arbitrated message squeezed onto a lower VC
				// reaches an unrepresentable state; it heals when that
				// worm clears the link, so back off rather than probe
				// per cycle.
				c.nextTry = c.now + 16
				return
			}
		} else if !c.parkShape(m) {
			c.nextTry = c.now + 2
			return
		} else {
			nPark++
		}
	}
	// Park wakes come first: they are computed from live message state,
	// so a too-close wake rejects the attempt before any flight is
	// built.
	wakeMin := farCycle
	if nPark > 0 {
		for _, m := range c.active {
			if m.advPrev {
				continue
			}
			var w int
			if m.candPrev {
				w = c.parkWakeArb(m)
				// A loser whose header also waits for a VC further on
				// wakes at that grant too: the grant makes the new
				// link a candidate no coverer was checked against.
				if h := m.headerAt(); h < m.hops() && m.vcHeld[h] < 0 {
					w = min(w, c.parkWakeVC(m))
				}
			} else {
				w = c.parkWakeVC(m)
			}
			if c.cfg.DropLate {
				if dc := m.genTime + m.s.Deadline + 1; dc < w {
					w = dc
				}
			}
			if w <= c.now+reentryGap {
				nt := w
				if nt <= c.now {
					nt = c.now + 1
				}
				c.nextTry = nt
				return
			}
			if w < wakeMin {
				wakeMin = w
			}
		}
	}
	// The clash screen runs on live message state with the very same
	// window projections convert would store, so a rejected attempt
	// builds no flights at all; conversion happens only once the
	// commit is certain.
	if cap(c.stairBuf) < len(c.active) {
		c.stairBuf = make([]bool, len(c.active), 2*len(c.active))
	}
	stairs := c.stairBuf[:len(c.active)]
	for i, m := range c.active {
		if m.advPrev {
			stairs[i] = c.msgStair(m)
		}
	}
	ccMin, clearMax := farCycle, 0
	for x, a := range c.active {
		if !a.advPrev {
			continue
		}
		sa := stairs[x]
		for bx, b := range c.active[:x] {
			if !b.advPrev {
				continue
			}
			sb := stairs[bx]
			for _, p := range c.pairs[a.li][b.li] {
				as, ae := c.msgWin(a, sa, p.pa)
				if as > ae {
					continue
				}
				bs, be := c.msgWin(b, sb, p.pb)
				if bs <= ae && as <= be {
					start := as
					if bs > start {
						start = bs
					}
					if start < ccMin {
						ccMin = start
					}
					end := ae
					if be < end {
						end = be
					}
					if end+1 > clearMax {
						clearMax = end + 1
					}
				}
			}
		}
		if nPark > 0 && ccMin > c.now+reentryGap {
			fv := 0
			if c.schemeVC {
				fv = c.prio[a.li]
			}
			for _, pm := range c.active {
				if pm.advPrev {
					continue
				}
				for _, p := range c.pairs[a.li][pm.li] {
					if held := pm.vcHeld[p.pb]; held < 0 || fv > held {
						continue
					}
					if ws, we := c.msgWin(a, sa, p.pa); ws <= we && ws < ccMin {
						ccMin = ws
						if ws+1 > clearMax {
							clearMax = ws + 1
						}
					}
				}
			}
		}
		if ccMin <= c.now+reentryGap {
			break
		}
	}
	if ccMin <= c.now+reentryGap {
		// Interaction (re)starts immediately or within a few cycles:
		// converting back and forth costs more than staying exact.
		retry := clearMax
		if retry <= c.now {
			retry = c.now + 1
		}
		c.nextTry = retry
		return
	}
	for _, m := range c.active {
		if m.advPrev {
			c.flights = append(c.flights, c.convert(m))
		}
	}
	reentry := ccMin
	if wakeMin < reentry {
		reentry = wakeMin
	}
	c.nextTry = 0
	if reentry < farCycle {
		// Something happens further out — a window overlap, a parked
		// wake, a flight reaching a pinned hold: fly analytically until
		// that cycle, then resume exact stepping there.
		c.reentry = reentry
	}
	for _, l := range c.links {
		l.pending = l.pending[:0]
		l.queued = false
		for v := range l.vcs {
			l.vcs[v].owner = nil
		}
	}
	c.waiting = c.waiting[:0]
	for _, m := range c.active {
		if m.advPrev {
			c.free = append(c.free, m)
		} else {
			m.parkFrom = c.now
			c.parked = append(c.parked, m)
		}
	}
	c.active = c.active[:0]
	c.mode = modeJump
}

// parkShape reports whether a statically blocked message is in a
// regime the park model covers. A VC-waiter (no candidate last cycle)
// parks when its header is pending on a link: its own counters cannot
// change until a grant, which parkWakeVC bounds. An arbitration loser
// parks only under non-strict arbitration with buffer depth >= 2,
// where parkWakeArb's dense higher-VC coverage argument applies. With
// deadlock detection on, a frozen message's stale counter would need
// per-cycle tracking, so parking is disabled entirely.
func (c *comp) parkShape(m *message) bool {
	if c.cfg.DeadlockThreshold > 0 {
		return false
	}
	if m.candPrev {
		return !c.strict && c.depth >= 2
	}
	h := m.headerAt()
	return h < m.hops() && m.vcHeld[h] < 0
}

// parkWakeVC bounds the park of a VC-waiter: the first cycle its
// pending header could be granted a virtual channel. Every VC its
// arbiter would consider is owned (else the grant is due next cycle);
// an owner that is itself parked holds past any wake, and an advancing
// owner releases the VC during its last crossing of the link — or, at
// the latest, at its deadline-drop cycle — making the grant possible
// one cycle later. Until that minimum, the waiter's pending entry wins
// any arrival-ordered tie but receives nothing, so its state is
// constant.
func (c *comp) parkWakeVC(m *message) int {
	h := m.headerAt()
	l := m.links[h]
	lo, hi := 0, 0
	switch c.cfg.Arbiter {
	case Preemptive:
		lo, hi = m.prio, m.prio
	case Li:
		lo, hi = 0, m.prio
	}
	wake := farCycle
	for v := lo; v <= hi; v++ {
		o := l.vcs[v].owner
		if o == nil {
			return c.now + 1
		}
		if !o.advPrev {
			continue // a parked owner holds past any wake
		}
		Ho, Co := o.hops(), o.s.Length
		w := farCycle
		for _, p := range c.pairs[m.li][o.li] {
			if p.pa != h {
				continue
			}
			if we := c.stairT(o.crossed, c.now, Co, p.pb, Ho); we+1 < w {
				w = we + 1
			}
		}
		if c.cfg.DropLate {
			if dc := o.genTime + o.s.Deadline + 1; dc < w {
				w = dc
			}
		}
		if w < wake {
			wake = w
		}
	}
	return wake
}

// parkWakeArb bounds the park of an arbitration loser: the first cycle
// it could win a candidate link. Its candidate set depends only on its
// own frozen counters, so it is constant; on each candidate link the
// message keeps losing exactly while some strictly-higher-VC flight
// crosses that link every cycle (dense coverage — buffer depth >= 2
// makes every flight's crossing window one-per-cycle). The wake is the
// first cycle any candidate link's coverage chain runs dry. Lower- or
// equal-VC traffic reaching a candidate link earlier forces re-entry
// through the VC rule (in conflicts and the refresh screen) or the
// flight-flight overlap with the coverer.
func (c *comp) parkWakeArb(m *message) int {
	C := m.s.Length
	wake := farCycle
	cand := false
	for i := m.lo; i < len(m.crossed); i++ {
		if m.vcHeld[i] < 0 {
			break
		}
		if m.crossed[i] >= C {
			continue
		}
		if i > 0 && m.crossed[i-1] <= m.crossed[i] {
			continue
		}
		if i+1 < len(m.crossed) && m.crossed[i]-m.crossed[i+1] >= c.depth {
			continue
		}
		cand = true
		if w := c.coverEnd(m, i) + 1; w < wake {
			wake = w
		}
	}
	if !cand {
		return c.now
	}
	return wake
}

// coverEnd returns the last cycle of the contiguous interval, starting
// at the current cycle, during which candidate link i of parked
// message m is crossed every cycle by some advancing message holding a
// strictly higher VC. Returns now-1 if no coverage starts immediately.
// Coverage uses the coverer's true projected crossing cycles (not the
// VC-hold extension: a message holding a VC while catching up is not a
// candidate and beats nobody), capped at its deadline-drop cycle.
// A coverer's crossings need not be dense: a generalized snapshot can
// carry a buffer bubble that propagates upstream and skips a cycle on
// the link, and on that cycle the parked message wins — so only
// contiguous runs of per-flit crossing cycles extend the cover.
func (c *comp) coverEnd(m *message, i int) int {
	vc := m.vcHeld[i]
	end := c.now - 1
	for changed := true; changed; {
		changed = false
		for _, o := range c.active {
			if !o.advPrev || (c.schemeVC && c.prio[o.li] <= vc) || (!c.schemeVC && vc >= 0) {
				continue
			}
			Ho, Co := o.hops(), o.s.Length
			for _, p := range c.pairs[m.li][o.li] {
				if p.pa != i || o.crossed[p.pb] >= Co {
					continue
				}
				cs := c.stairT(o.crossed, c.now, o.crossed[p.pb]+1, p.pb, Ho)
				ce := c.stairT(o.crossed, c.now, Co, p.pb, Ho)
				dc := farCycle
				if c.cfg.DropLate {
					dc = o.genTime + o.s.Deadline + 1
				}
				if ce-cs == Co-o.crossed[p.pb]-1 {
					// One crossing per cycle: the span is a single run.
					if dc-1 < ce {
						ce = dc - 1
					}
					if cs <= end+1 && ce > end {
						end = ce
						changed = true
					}
					continue
				}
				run, prev := cs, cs-2
				for k := o.crossed[p.pb] + 1; k <= Co; k++ {
					tk := c.stairT(o.crossed, c.now, k, p.pb, Ho)
					if tk >= dc {
						break
					}
					if tk != prev+1 {
						if run <= end+1 && prev > end {
							end = prev
							changed = true
						}
						run = tk
					}
					prev = tk
				}
				if run <= end+1 && prev > end {
					end = prev
					changed = true
				}
			}
		}
	}
	return end
}
