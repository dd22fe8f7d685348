package sim

import (
	"fmt"
	"sort"

	"repro/internal/stream"
	"repro/internal/topology"
)

// EventSimulator is the skip-idle, event-driven counterpart of
// Simulator. It produces results byte-identical to the cycle engine —
// Simulator remains the oracle, and the differential battery pins the
// two engines against each other across topologies, arbiters, buffer
// depths and seeds — while skipping the cycles in which nothing
// contended happens.
//
// Two observations make that possible:
//
//  1. Streams whose paths share no physical channel can never
//     interact: no virtual channel, no physical-channel arbitration
//     slot and no buffer is shared, and release times are fixed by the
//     schedule alone. The connected components of that static conflict
//     graph partition both the streams and the links, so each
//     component is simulated independently, to completion, with no
//     cross-component ordering to reproduce. (Config.Tracer is the one
//     feature that observes cross-component ordering, so NewEvent
//     rejects it; use the cycle engine for traces.)
//
//  2. Within a component, a message that never blocks follows an exact
//     closed-form "staircase" trajectory (flit f crosses channel i at
//     a fixed offset from the release time), and whether it will block
//     is decidable at release time by intersecting per-channel
//     occupancy windows against the other in-flight messages. While
//     every in-flight message is free-flowing, the component jumps
//     straight from event to event (releases, deliveries, deadline
//     drops); the moment a release would overlap an occupancy window,
//     the component materialises its messages into the cycle kernel —
//     the very kernel Simulator runs, over the component's streams and
//     links — steps it, and returns to jump mode only when the
//     survivors again match the staircase exactly.
//
// The fallback rule is deliberately conservative: window overlap does
// not always mean a flit-level stall, but free flow is only assumed
// when overlap is impossible, so jump mode never has to approximate
// an arbitration. Everything contended runs through the cycle kernel,
// which is why the statistics come out identical rather than merely
// close.
//
// A positive Set.RouterLatency disables jump mode (the staircase forms
// assume single-cycle routers); such runs still benefit from component
// decomposition and idle-gap skipping, but not from analytic flight.
type EventSimulator struct {
	res   *Result
	comps []*comp
}

// NewEvent builds an event-driven simulator for the given validated
// stream set. The configuration is interpreted exactly as by New, with
// one restriction: a non-nil Tracer is rejected, because trace events
// interleave across conflict components in an order only the global
// cycle loop can reproduce.
func NewEvent(set *stream.Set, cfg Config) (*EventSimulator, error) {
	su, err := newSetup(set, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Tracer != nil {
		return nil, fmt.Errorf("sim: the event engine does not support tracing (event order across conflict components is not reproduced); use the cycle engine")
	}
	s := &EventSimulator{res: su.res}

	// Conflict components: union streams that share any channel.
	parent := make([]int, set.Len())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	firstUser := make(map[topology.Channel]int)
	for _, st := range set.Streams {
		for _, ch := range st.Path.Channels {
			if u, ok := firstUser[ch]; ok {
				parent[find(int(st.ID))] = find(u)
			} else {
				firstUser[ch] = int(st.ID)
			}
		}
	}
	members := make(map[int][]int)
	var roots []int
	for i := range parent {
		r := find(i)
		if _, ok := members[r]; !ok {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	sort.Ints(roots)

	for _, r := range roots {
		s.comps = append(s.comps, newComp(su, members[r])) // ascending: appended in stream order
	}
	return s, nil
}

// Run simulates every conflict component to completion. Per-stream and
// per-channel entries never overlap between components, so each
// component books straight into the shared result.
func (s *EventSimulator) Run() *Result {
	for _, c := range s.comps {
		c.run()
	}
	return s.res
}

const (
	modeJump  = iota // every in-flight message on its analytic staircase
	modeCycle        // stepping the exact cycle kernel
)

// ipair records one shared link between two stream paths: path index
// pa on the first stream, pb on the second.
type ipair struct {
	pa, pb int
}

// comp is one conflict component: streams whose paths are transitively
// connected through shared channels, simulated to completion with no
// reference to any other component. The embedded kernel covers the
// component's streams and links and holds the exact state while the
// component is in cycle mode.
type comp struct {
	kernel

	// Analytic free-flow constants (meaningful only when jumpable):
	// lat[li] is the unloaded latency, wl[li] the per-link occupancy
	// window length, and pairs[a][b] the shared-link index pairs of
	// local streams a and b (a == b gives the identity pairs, which
	// make back-to-back instances of one stream check against each
	// other).
	jumpable bool
	schemeVC bool // arbiter grants a free-flowing header its own-priority VC
	lat      []int
	wl       []int
	pairs    [][][]ipair

	// Jump-mode state: analytic flights, in release order.
	flights []*flight
	fpool   []*flight

	// Materialisation scratch (stamp-order computation).
	ordKeys   []flightOrder
	ordIdx    []int
	ordStamps []int64

	// Refresh scratch: per-active staircase flags for the clash screen.
	stairBuf []bool

	mode    int
	reentry int        // scheduled first-interaction cycle for kernel re-entry
	parked  []*message // statically blocked messages frozen through jump mode
}

func newComp(su *setup, ids []int) *comp {
	c := &comp{kernel: su.newKernel(ids), reentry: farCycle}
	c.schemeVC = c.cfg.Arbiter == Preemptive || c.cfg.Arbiter == Li
	c.jumpable = c.rl == 0
	if c.jumpable {
		c.mode = modeJump
	} else {
		c.mode = modeCycle
	}
	n := len(ids)
	c.lat = make([]int, n)
	c.wl = make([]int, n)
	for li, st := range c.streams {
		H, C := st.Path.Hops(), st.Length
		if c.depth >= 2 || H == 1 {
			c.lat[li] = H + C - 1
		} else {
			c.lat[li] = H + 2*C - 2
		}
		c.wl[li] = c.lat[li] - H + 1
	}
	c.pairs = make([][][]ipair, n)
	for a := range c.streams {
		c.pairs[a] = make([][]ipair, n)
		for b := range c.streams {
			var ps []ipair
			for pa, cha := range c.streams[a].Path.Channels {
				for pb, chb := range c.streams[b].Path.Channels {
					if cha == chb {
						ps = append(ps, ipair{pa, pb})
					}
				}
			}
			c.pairs[a][b] = ps
		}
	}
	return c
}

// run simulates the component to the configured horizon, alternating
// between analytic jump mode and the exact cycle kernel, then settles
// the end-of-run accounting.
func (c *comp) run() {
	if c.runSolo() {
		return
	}
	cycles := c.cfg.Cycles
	for c.now < cycles {
		if c.mode == modeJump {
			c.jumpStep()
			continue
		}
		// With nothing in flight the kernel state cannot change until
		// the next release: skip the gap. (When jump mode is available
		// tryRefresh already escapes this state; this is the idle
		// skipping that remains with RouterLatency > 0.)
		if len(c.active) == 0 {
			t := cycles
			for li := range c.streams {
				if c.nextRel[li] < t {
					t = c.nextRel[li]
				}
			}
			if t >= cycles {
				c.now = cycles
				break
			}
			c.now = t
		}
		// A retirement makes a refresh immediately worth attempting
		// and invalidates any scheduled-retry estimate: the window set
		// it was computed from no longer exists. A release never does
		// (it only adds windows), so between retirements attempts run
		// on the nextTry schedule instead.
		retired := c.step()
		if retired {
			c.nextTry = 0
		}
		if c.now < cycles && (retired || c.now >= c.nextTry) {
			c.tryRefresh()
		}
	}
	c.finish()
}

// finish settles end-of-run accounting: messages still in flight in
// any representation — kernel, parked or analytic — and the
// per-channel activity flush.
func (c *comp) finish() {
	c.res.Unfinished += len(c.flights) + len(c.parked)
	for _, m := range c.parked {
		c.res.PerStream[m.s.ID].Unfinished++
		c.creditPark(m, c.cfg.Cycles)
	}
	for _, f := range c.flights {
		c.res.PerStream[c.streams[f.li].ID].Unfinished++
		c.creditFlight(f, c.cfg.Cycles)
	}
	c.kernel.finish()
}
