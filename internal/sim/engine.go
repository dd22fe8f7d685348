package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
)

// setup is what both engines derive from a stream set and
// configuration before building kernels: the defaulted configuration,
// the shared result, the release plan and the priority-level index.
type setup struct {
	set     *stream.Set
	cfg     Config
	res     *Result
	sched   *schedule
	prioIdx map[int]int // priority value -> VC level index (0 = lowest)
}

func newSetup(set *stream.Set, cfg Config) (*setup, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("sim: empty stream set")
	}
	c, err := cfg.withDefaults(set.Len())
	if err != nil {
		return nil, err
	}
	su := &setup{set: set, cfg: c, res: newResult(set, c), sched: newSchedule(set, c), prioIdx: make(map[int]int)}
	// Priority levels, ascending: index 0 is the lowest priority.
	levels := set.PriorityLevels() // descending
	for i, p := range levels {
		su.prioIdx[p] = len(levels) - 1 - i
	}
	return su, nil
}

// kernel is the exact cycle-by-cycle wormhole model over a subset of
// the streams (ascending stream ID) and the links their paths use. It
// has its own clock: step executes one cycle at now and advances it.
// The cycle engine runs one kernel over every stream; the event engine
// runs one per conflict component, stepping it through contended
// windows only. Results land in the shared Result, indexed by global
// stream ID, so kernels over disjoint stream sets never collide.
type kernel struct {
	cfg   Config
	res   *Result
	sched *schedule

	streams   []*stream.Stream // ascending stream ID
	links     []*link          // (From, To) scan order
	pathLinks [][]*link        // per local stream: the link at each hop of its path
	pathOrds  [][]int32        // per local stream: the ordinal of each path link
	prio      []int            // per local stream: priority level index
	rl        int              // per-hop router pipeline depth (set.RouterLatency)
	depth     int              // per-VC buffer depth
	strict    bool             // strict physical priority applies to this arbiter

	// Per-link-ordinal arbitration state for the current cycle: bit
	// ord of candMask marks that candBest[ord] was folded this cycle
	// (collectCandidates); moveFlits consumes the mask word by word,
	// visiting winners in ascending ordinal order, and clears it for
	// the next cycle. The word sweep touches a handful of cache lines
	// regardless of how many links the network has.
	candMask []uint64
	candBest []candidate

	// Release cursors per local stream (see schedule).
	nextRel []int
	relIdx  []int
	nextSeq []int

	active  []*message
	retired []*message // delivered/dropped this cycle, pooled at cycle end
	free    []*message // recycled message instances
	waiting []*link    // links with headers pending a VC (see link.queued)
	stamp   int64
	now     int
	// nextTry is the earliest cycle at which the event engine retries
	// leaving the kernel; accountStalls resets it when a message stops
	// advancing. The cycle engine never reads it.
	nextTry int
}

// newKernel builds the kernel for the streams ids (ascending global
// indices) of the set.
func (su *setup) newKernel(ids []int) kernel {
	c := su.cfg
	k := kernel{cfg: c, res: su.res, sched: su.sched, rl: su.set.RouterLatency, depth: c.BufferDepth}
	single := c.Arbiter == NonPreemptiveFIFO || c.Arbiter == NonPreemptivePriority
	k.strict = c.StrictPhysicalPriority && !single
	vcsPerLink := len(su.prioIdx)
	if single {
		vcsPerLink = 1
	}
	n := len(ids)
	k.streams = make([]*stream.Stream, n)
	for li, gi := range ids {
		k.streams[li] = su.set.Get(stream.ID(gi))
	}
	// Only channels actually used by some path need router state. The
	// (From, To) order is the order flit movement visits winners in,
	// and any stream subset keeps it.
	seen := make(map[topology.Channel]bool)
	var chans []topology.Channel
	for _, st := range k.streams {
		for _, ch := range st.Path.Channels {
			if !seen[ch] {
				seen[ch] = true
				chans = append(chans, ch)
			}
		}
	}
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].From != chans[j].From {
			return chans[i].From < chans[j].From
		}
		return chans[i].To < chans[j].To
	})
	// One contiguous allocation in scan order: the cycle loop walks
	// the links linearly, so adjacency matters.
	arr := make([]link, len(chans))
	ordOf := make(map[topology.Channel]int32, len(chans))
	for i, ch := range chans {
		arr[i] = link{ch: ch, vcs: make([]vc, vcsPerLink)}
		k.links = append(k.links, &arr[i])
		ordOf[ch] = int32(i)
	}
	k.candMask = make([]uint64, (len(chans)+63)/64)
	k.candBest = make([]candidate, len(chans))
	// Hot paths index links by stream and hop instead of hashing
	// 16-byte Channel keys every cycle.
	k.pathLinks = make([][]*link, n)
	k.pathOrds = make([][]int32, n)
	k.prio = make([]int, n)
	k.nextRel = make([]int, n)
	k.relIdx = make([]int, n)
	k.nextSeq = make([]int, n)
	for li, st := range k.streams {
		hop := make([]*link, len(st.Path.Channels))
		ords := make([]int32, len(st.Path.Channels))
		for i, ch := range st.Path.Channels {
			ords[i] = ordOf[ch]
			hop[i] = k.links[ords[i]]
		}
		k.pathLinks[li] = hop
		k.pathOrds[li] = ords
		k.prio[li] = su.prioIdx[st.Priority]
		k.nextRel[li], k.relIdx[li] = k.sched.start(int(st.ID))
	}
	return k
}

// Simulator runs one wormhole network simulation for a stream set:
// one kernel over every stream, stepped cycle by cycle. It is the
// oracle the event engine is pinned against, and the only engine that
// supports Config.Tracer.
type Simulator struct {
	k kernel
}

// New builds a simulator for the given validated stream set.
func New(set *stream.Set, cfg Config) (*Simulator, error) {
	su, err := newSetup(set, cfg)
	if err != nil {
		return nil, err
	}
	ids := make([]int, set.Len())
	for i := range ids {
		ids[i] = i
	}
	return &Simulator{k: su.newKernel(ids)}, nil
}

// Run simulates the configured number of cycles and returns the
// collected statistics.
func (s *Simulator) Run() *Result {
	k := &s.k
	for k.now < k.cfg.Cycles {
		k.step()
	}
	k.finish()
	return k.res
}

// Now returns the current simulation time (useful to instrument partial
// runs in tests).
func (s *Simulator) Now() int { return s.k.now }

// step executes one exact simulation cycle and advances the clock. It
// reports whether any message retired (delivered or dropped).
func (k *kernel) step() bool {
	k.release()
	if k.cfg.DropLate {
		k.dropLate()
	}
	if k.rl > 0 {
		k.promote()
	}
	k.assignVCs()
	k.collectCandidates()
	k.moveFlits()
	k.accountStalls()
	// A link's best-candidate slot may still point at a message
	// retired this cycle, but moveFlits has already consumed and
	// cleared its mask bit, so the slot is never dereferenced again
	// and the instances are safe to reissue from the next cycle on.
	retired := len(k.retired) > 0
	k.free = append(k.free, k.retired...)
	k.retired = k.retired[:0]
	k.now++
	return retired
}

// finish settles the end-of-run accounting of the kernel's messages
// and flushes the per-link activity counters; only channels that
// carried a flit appear in the map, as when it was updated per
// crossing.
func (k *kernel) finish() {
	k.res.Unfinished += len(k.active)
	for _, m := range k.active {
		k.res.PerStream[m.s.ID].Unfinished++
	}
	for _, l := range k.links {
		if l.flits > 0 {
			k.res.PerChannel[l.ch] = ChannelStats{BusyCycles: l.flits, Flits: l.flits}
		}
	}
}

// nextRelease consumes local stream li's due release and moves its
// cursor to the next one in the plan.
func (k *kernel) nextRelease(li int) {
	k.nextSeq[li]++
	k.nextRel[li], k.relIdx[li] = k.sched.next(int(k.streams[li].ID), k.nextRel[li], k.relIdx[li])
}

// release activates every message whose release time is the current
// cycle and enqueues its header at the first channel of its path.
func (k *kernel) release() {
	for li, st := range k.streams {
		for k.nextRel[li] <= k.now {
			m := k.newMessage(li, k.nextSeq[li], k.nextRel[li])
			k.stamp++
			m.arrival = k.stamp
			k.nextRelease(li)
			k.active = append(k.active, m)
			k.res.PerStream[st.ID].Generated++
			k.addPending(m.links[0], m)
			k.trace(trace.Event{Cycle: k.now, Kind: trace.Release, Stream: st.ID, Seq: m.seq})
		}
	}
}

// newMessage issues a message instance, recycling a retired one when
// available. The per-hop counters share one backing array; both it and
// the message struct survive recycling.
func (k *kernel) newMessage(li, seq, genTime int) *message {
	st := k.streams[li]
	hops := st.Path.Hops()
	n := 2 * hops
	if k.rl > 0 {
		n = 3 * hops
	}
	var m *message
	if n := len(k.free); n > 0 {
		m = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		m = &message{}
	}
	buf := m.buf
	if cap(buf) < n {
		buf = make([]int, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	inflight := m.inflight
	*m = message{
		s:       st,
		li:      li,
		links:   k.pathLinks[li],
		ords:    k.pathOrds[li],
		buf:     buf,
		seq:     seq,
		genTime: genTime,
		crossed: buf[0:hops:hops],
		vcHeld:  buf[hops : 2*hops : 2*hops],
		prio:    k.prio[li],
	}
	if k.rl > 0 {
		m.visible = buf[2*hops : 3*hops : 3*hops]
		if cap(inflight) < hops {
			inflight = make([][]int, hops)
		} else {
			inflight = inflight[:hops]
			for j := range inflight {
				inflight[j] = inflight[j][:0]
			}
		}
		m.inflight = inflight
	}
	for j := range m.vcHeld {
		m.vcHeld[j] = -1
	}
	return m
}

// addPending enqueues a header waiting for a VC on l and registers l
// in the waiting list assignVCs works from.
func (k *kernel) addPending(l *link, m *message) {
	l.pending = append(l.pending, m)
	if !l.queued {
		l.queued = true
		k.waiting = append(k.waiting, l)
	}
}

// assignVCs runs the header VC-allocation policy on every link with
// waiting headers. Only links on the waiting list are visited; a link
// whose queue empties (or was emptied by removePending) drops off the
// list here. Per-link assignment is independent of the visit order, so
// working in list order rather than sorted link order changes nothing
// observable.
func (k *kernel) assignVCs() {
	kept := k.waiting[:0]
	for _, l := range k.waiting {
		if len(l.pending) == 0 {
			l.queued = false
			continue
		}
		switch k.cfg.Arbiter {
		case Preemptive:
			// Each header may only take the VC of its own priority.
			k.sortPending(l, true)
			rest := l.pending[:0]
			for _, m := range l.pending {
				idx := k.pathIndex(m, l)
				if l.vcs[m.prio].owner == nil {
					l.vcs[m.prio].owner = m
					m.vcHeld[idx] = m.prio
					k.trace(trace.Event{Cycle: k.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: m.prio})
				} else {
					rest = append(rest, m)
				}
			}
			l.pending = rest
		case Li:
			// A header may take the highest free VC numbered at or
			// below its priority.
			k.sortPending(l, true)
			rest := l.pending[:0]
			for _, m := range l.pending {
				idx := k.pathIndex(m, l)
				got := -1
				for v := m.prio; v >= 0; v-- {
					if l.vcs[v].owner == nil {
						got = v
						break
					}
				}
				if got >= 0 {
					l.vcs[got].owner = m
					m.vcHeld[idx] = got
					k.trace(trace.Event{Cycle: k.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: got})
				} else {
					rest = append(rest, m)
				}
			}
			l.pending = rest
		case NonPreemptiveFIFO, NonPreemptivePriority:
			k.sortPending(l, k.cfg.Arbiter == NonPreemptivePriority)
			if l.vcs[0].owner == nil {
				m := l.pending[0]
				idx := k.pathIndex(m, l)
				l.vcs[0].owner = m
				m.vcHeld[idx] = 0
				l.pending = l.pending[1:]
				k.trace(trace.Event{Cycle: k.now, Kind: trace.VCAcquire, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: 0})
			}
		}
		if len(l.pending) > 0 {
			kept = append(kept, l)
		} else {
			l.queued = false
		}
	}
	k.waiting = kept
}

// sortPending orders a link's waiting headers: by priority (descending)
// then arrival when byPriority is set, else pure arrival order. The
// queues are short and nearly sorted (new headers append at the tail),
// so a stable insertion sort beats sort.SliceStable and, unlike it,
// allocates nothing — this runs for every link with waiters every
// cycle.
func (k *kernel) sortPending(l *link, byPriority bool) {
	p := l.pending
	for i := 1; i < len(p); i++ {
		m := p[i]
		j := i
		for j > 0 && pendingBefore(m, p[j-1], byPriority) {
			p[j] = p[j-1]
			j--
		}
		p[j] = m
	}
}

// pendingBefore reports whether a must be served before b.
func pendingBefore(a, b *message, byPriority bool) bool {
	if byPriority && a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.arrival < b.arrival
}

// pathIndex returns the index of link l within m's path. Headers only
// wait at the channel they are about to cross, so the header position
// identifies it.
func (k *kernel) pathIndex(m *message, l *link) int {
	i := m.headerAt()
	if i >= m.hops() || m.links[i] != l {
		panic(fmt.Sprintf("sim: message %d/%d header not at link %s", m.s.ID, m.seq, l.ch))
	}
	return i
}

// collectCandidates registers, per link, every message with a flit that
// could cross it this cycle, folding the physical-channel arbitration
// in as it goes: each link keeps only the winning candidate — the one
// on the highest-numbered VC, ties to the earliest-discovered, exactly
// what a scan over a materialized candidate list would pick. Every VC
// holds at most one message, so candidates on one link occupy distinct
// VCs and the incremental maximum is order-independent.
func (k *kernel) collectCandidates() {
	rl, depth := k.rl, k.depth
	for _, m := range k.active {
		C := m.s.Length
		crossed, vcHeld := m.crossed, m.vcHeld
		// VCs are held on the contiguous range starting at m.lo (the
		// prefix is released, everything past the header not yet
		// acquired), so the scan starts there and stops at the first
		// hop without a VC. A message waiting for its first VC costs
		// O(1). A held VC always has flits left to send: the tail
		// crossing is the moment the VC is released.
		for i := m.lo; i < len(crossed); i++ {
			if vcHeld[i] < 0 {
				break
			}
			if crossed[i] >= C {
				continue
			}
			// Flit availability: the source holds all flits; later
			// channels need a flit buffered at their input (and, with
			// a router pipeline, out of the pipeline).
			if i > 0 {
				avail := crossed[i-1]
				if rl > 0 {
					avail = m.visible[i]
				}
				if avail <= crossed[i] {
					continue
				}
			}
			// Downstream buffer space (the sink always accepts).
			// Flits still inside the next router's pipeline occupy
			// pipeline registers, not the VC buffer, so only flits
			// that have emerged (visible) count against the depth.
			if i+1 < len(crossed) {
				occ := crossed[i] - crossed[i+1]
				if rl > 0 {
					occ = m.visible[i+1] - crossed[i+1]
				}
				if occ >= depth {
					continue
				}
			}
			ord := m.ords[i]
			w, bit := ord>>6, uint64(1)<<(uint32(ord)&63)
			if k.candMask[w]&bit == 0 {
				k.candMask[w] |= bit
				k.candBest[ord] = candidate{m: m, idx: i}
			} else if b := &k.candBest[ord]; vcHeld[i] > b.m.vcHeld[b.idx] {
				k.candBest[ord] = candidate{m: m, idx: i}
			}
			m.hadCandidate = true
		}
	}
}

// moveFlits advances the winning flit of every link that received a
// candidate this cycle. All decisions were taken against start-of-cycle
// state (collectCandidates), so flits of one message advance on several
// links in the same cycle — the wormhole pipeline. Arbitration already
// happened incrementally during collection; under the strict physical-
// priority rule the winner additionally transmits only when it sits on
// the highest occupied VC (the paper's literal formulation: VC v
// obtains bandwidth only if every higher VC is completely free).
func (k *kernel) moveFlits() {
	for w, word := range k.candMask {
		if word == 0 {
			continue
		}
		k.candMask[w] = 0
		for ; word != 0; word &= word - 1 {
			ord := w<<6 + bits.TrailingZeros64(word)
			c := k.candBest[ord]
			l := k.links[ord]
			if k.strict {
				top := -1
				for v := len(l.vcs) - 1; v >= 0; v-- {
					if l.vcs[v].owner != nil {
						top = v
						break
					}
				}
				if c.m.vcHeld[c.idx] != top {
					continue
				}
			}
			k.advance(l, &c)
		}
	}
}

// advance moves one flit of m across path channel idx, handling header
// arrival at the next hop, tail VC release and delivery accounting.
func (k *kernel) advance(l *link, c *candidate) {
	m, i := c.m, c.idx
	m.crossed[i]++
	m.advanced = true
	l.flits++
	if i+1 < m.hops() {
		if k.rl > 0 {
			// The flit enters the next router's pipeline; promote()
			// surfaces it (and the header's VC request) later.
			m.inflight[i+1] = append(m.inflight[i+1], k.now)
		} else if m.crossed[i] == 1 {
			// Header arrived at the next router: request a VC there.
			k.stamp++
			m.arrival = k.stamp
			k.addPending(m.links[i+1], m)
		}
	}
	if m.crossed[i] == m.s.Length {
		// Tail passed: release this channel's VC.
		vcIdx := m.vcHeld[i]
		l.vcs[vcIdx].owner = nil
		m.vcHeld[i] = -1
		if i == m.lo {
			m.lo++
		}
		if k.cfg.Tracer != nil {
			k.trace(trace.Event{Cycle: k.now + 1, Kind: trace.VCRelease, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: vcIdx})
		}
		if i == m.hops()-1 {
			k.deliver(m)
		}
	}
}

// promote moves flits out of the router pipelines: a flit that crossed
// channel i-1 during cycle ts becomes available at channel i's input at
// cycle ts + 1 + RouterLatency (the +1 matches the zero-latency model,
// where a crossing is visible the following cycle). The header's
// arrival additionally enqueues its VC request.
func (k *kernel) promote() {
	for _, m := range k.active {
		for i := 1; i < m.hops(); i++ {
			q := m.inflight[i]
			for len(q) > 0 && k.now-q[0] >= 1+k.rl {
				q = q[1:]
				m.visible[i]++
				if m.visible[i] == 1 {
					k.stamp++
					m.arrival = k.stamp
					k.addPending(m.links[i], m)
				}
			}
			m.inflight[i] = q
		}
	}
}

// dropLate aborts every in-flight message older than its deadline:
// held VCs are released, pending-header entries withdrawn, and the
// message retired as Dropped.
func (k *kernel) dropLate() {
	kept := k.active[:0]
	for _, m := range k.active {
		if k.now-m.genTime <= m.s.Deadline {
			kept = append(kept, m)
			continue
		}
		h := m.headerAt()
		if h < m.hops() && m.vcHeld[h] < 0 {
			// The header is queued for a VC somewhere: withdraw it.
			m.links[h].removePending(m)
		}
		for i, vcIdx := range m.vcHeld {
			if vcIdx >= 0 {
				l := m.links[i]
				l.vcs[vcIdx].owner = nil
				m.vcHeld[i] = -1
				k.trace(trace.Event{Cycle: k.now, Kind: trace.VCRelease, Stream: m.s.ID, Seq: m.seq, Link: l.ch, VC: vcIdx})
			}
		}
		k.res.PerStream[m.s.ID].Dropped++
		k.retired = append(k.retired, m)
	}
	k.active = kept
}

// accountStalls classifies, for every message still in flight, why it
// made no progress this cycle: waiting for a virtual channel, losing
// the physical-channel arbitration, or blocked on downstream buffers
// (the classic wormhole hold-and-wait). The counts land in the
// per-stream statistics and decompose observed latency into its
// blocking causes.
func (k *kernel) accountStalls() {
	for _, m := range k.active {
		if m.genTime >= k.cfg.Warmup {
			st := &k.res.PerStream[m.s.ID]
			switch {
			case m.advanced:
				st.ProgressCycles++
			case m.hadCandidate:
				st.ArbStallCycles++
			case func() bool { h := m.headerAt(); return h < m.hops() && m.vcHeld[h] < 0 }():
				st.VCStallCycles++
			default:
				st.BufferStallCycles++
			}
		}
		if k.cfg.DeadlockThreshold > 0 {
			holdsVC := false
			for _, v := range m.vcHeld {
				if v >= 0 {
					holdsVC = true
					break
				}
			}
			if m.advanced || !holdsVC {
				m.stale = 0
			} else {
				m.stale++
				if m.stale >= k.cfg.DeadlockThreshold && !m.flagged {
					m.flagged = true
					k.res.PerStream[m.s.ID].DeadlockSuspects++
					// Kernels over disjoint components run one after
					// another, each from cycle 0: keep the earliest.
					if k.res.FirstDeadlockCycle < 0 || k.now < k.res.FirstDeadlockCycle {
						k.res.FirstDeadlockCycle = k.now
					}
				}
			}
		}
		if m.advPrev && !m.advanced {
			// A free-flowing message just blocked: the event engine's
			// park path opens, so any scheduled-retry estimate computed
			// under the old regime is stale. (The opposite flip — a
			// blocked message resuming — keeps its window-overlap
			// estimate valid: retiring traffic already forces an
			// attempt.)
			k.nextTry = 0
		}
		m.advPrev = m.advanced
		m.candPrev = m.hadCandidate
		m.advanced = false
		m.hadCandidate = false
	}
}

// trace emits an event if a tracer is configured.
func (k *kernel) trace(e trace.Event) {
	if k.cfg.Tracer != nil {
		k.cfg.Tracer.Event(e)
	}
}

// deliver records a completed message and retires it.
func (k *kernel) deliver(m *message) {
	latency := k.now + 1 - m.genTime // the flit crosses during cycle now..now+1
	k.trace(trace.Event{Cycle: k.now + 1, Kind: trace.Deliver, Stream: m.s.ID, Seq: m.seq})
	st := &k.res.PerStream[m.s.ID]
	st.Delivered++
	if m.genTime >= k.cfg.Warmup {
		st.observe(latency, m.s.Deadline)
	}
	for i, a := range k.active {
		if a == m {
			k.active = append(k.active[:i], k.active[i+1:]...)
			break
		}
	}
	k.retired = append(k.retired, m)
}
