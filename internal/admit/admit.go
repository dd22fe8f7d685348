// Package admit implements online admission control over the paper's
// feasibility analysis: a concurrency-safe Controller owns a live
// stream set and answers admit/withdraw requests incrementally.
//
// The paper frames Determine-Feasibility as a static, offline test,
// but its data structures say exactly which streams a change can
// affect: stream j's delay upper bound U_j is a function of HP_j
// alone, and adding or removing stream s can alter HP_j only when s is
// a member of it (core.Dependents). The controller exploits that on
// every mutation — it rebuilds the HP sets (cheap, see
// docs/PERFORMANCE.md), recomputes U only for the BDG-reachable dirty
// set through core's batch Cal_U path on the grid pool, and keeps
// every other stream's bound cached. An admission that would break any
// deadline — the newcomer's or a victim's — rolls back without
// disturbing the running system and returns a structured Rejection
// naming the violated stream and its U versus its deadline.
//
// The differential battery in differential_test.go pins the central
// invariant: after any admit/withdraw sequence, Report is
// byte-identical to a fresh core.DetermineFeasibility over the
// surviving streams.
package admit

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Spec describes one stream to admit. Deadline 0 defaults to Period,
// matching stream.Set.Add.
type Spec struct {
	Src, Dst topology.NodeID
	Priority int
	Period   int
	Length   int
	Deadline int
}

// Handle is a stable token for one admitted stream. Handles survive
// withdrawals of other streams (unlike stream IDs, which stay dense)
// and snapshot/restore cycles. Zero is never a valid handle.
type Handle int64

// Admitted pairs a live stream's handle with its spec and its current
// (dense) ID within the controller's set.
type Admitted struct {
	Handle Handle
	ID     stream.ID
	Spec   Spec
}

// Rejection explains an infeasible admission: the stream whose bound
// broke its deadline, identified by its ID within the tentative
// combined set and — when it was already admitted rather than one of
// the candidates — by its handle.
type Rejection struct {
	Stream   stream.ID `json:"stream"`
	Handle   Handle    `json:"handle,omitempty"`
	New      bool      `json:"new"` // the violated stream was among the candidates
	U        int       `json:"u"`   // -1: no bound within the deadline
	Deadline int       `json:"deadline"`
}

func (r *Rejection) String() string {
	who := fmt.Sprintf("admitted stream %d (handle %d)", r.Stream, r.Handle)
	if r.New {
		who = fmt.Sprintf("candidate stream %d", r.Stream)
	}
	if r.U < 0 {
		return fmt.Sprintf("%s: no delay bound within deadline %d", who, r.Deadline)
	}
	return fmt.Sprintf("%s: U=%d exceeds deadline %d", who, r.U, r.Deadline)
}

// Result is the outcome of one admission attempt.
type Result struct {
	Admitted   bool
	Handles    []Handle     // one per candidate, set when admitted
	Rejection  *Rejection   // set when not admitted
	Report     *core.Report // feasibility over the tentative combined set
	Recomputed int          // bounds recomputed for this attempt
}

// Stats are the controller's monotonic counters.
type Stats struct {
	Admitted   int64 // streams admitted
	Rejected   int64 // admission attempts rejected as infeasible
	Withdrawn  int64 // streams withdrawn
	Recomputed int64 // delay bounds recomputed across all mutations
	Cached     int64 // bounds served from cache across all mutations
}

// Config tunes a Controller. The zero value is ready for production
// use.
type Config struct {
	// Workers is the recompute pool width; <= 0 uses GOMAXPROCS.
	Workers int
	// RouterLatency is the per-hop router pipeline depth shared by the
	// machine (0 = the paper's single-cycle model).
	RouterLatency int
	// Router overrides the topology's canonical deterministic router
	// (nil = canonical). The design-space explorer uses it to sweep
	// routing policies (X-Y versus Y-X on a mesh) through the same
	// admission path. Snapshots do not record the override: Restore
	// re-routes with the restoring controller's own router, so a
	// controller with a non-canonical Router should not be restored
	// from a canonical snapshot or vice versa.
	Router routing.Router
}

// Controller is a live admission controller. All methods are safe for
// concurrent use; mutations serialize behind a write lock while
// Report, Stats and Streams read concurrently.
type Controller struct {
	topo   topology.Topology
	router routing.Router
	cfg    Config

	mu         sync.RWMutex
	set        *stream.Set    // dense, admission-ordered
	analyzer   *core.Analyzer // over set
	u          []int          // cached delay upper bound per stream ID
	handles    []Handle       // handles[i] = handle of set.Streams[i]
	byHandle   map[Handle]int // handle -> index into set.Streams
	nextHandle Handle
	stats      Stats
}

// New returns an empty controller over t using its canonical
// deterministic router, or cfg.Router when set.
func New(t topology.Topology, cfg Config) (*Controller, error) {
	r := cfg.Router
	if r == nil {
		var err error
		if r, err = routing.ForTopology(t); err != nil {
			return nil, err
		}
	}
	if cfg.RouterLatency < 0 {
		return nil, fmt.Errorf("admit: negative router latency %d", cfg.RouterLatency)
	}
	set := &stream.Set{Topology: t, RouterLatency: cfg.RouterLatency}
	a, err := core.NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	return &Controller{
		topo:       t,
		router:     r,
		cfg:        cfg,
		set:        set,
		analyzer:   a,
		byHandle:   map[Handle]int{},
		nextHandle: 1,
	}, nil
}

// Topology returns the machine the controller manages.
func (c *Controller) Topology() topology.Topology { return c.topo }

// Len returns the number of admitted streams.
func (c *Controller) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.set.Len()
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// Streams returns the admitted streams in admission order.
func (c *Controller) Streams() []Admitted {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Admitted, c.set.Len())
	for i, s := range c.set.Streams {
		out[i] = Admitted{
			Handle: c.handles[i],
			ID:     s.ID,
			Spec: Spec{
				Src: s.Src, Dst: s.Dst,
				Priority: s.Priority, Period: s.Period,
				Length: s.Length, Deadline: s.Deadline,
			},
		}
	}
	return out
}

// Report returns the feasibility report over the admitted streams,
// assembled from the cached bounds — byte-identical to a fresh
// core.DetermineFeasibility on the same set.
func (c *Controller) Report() *core.Report {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return core.NewReport(c.set, c.u)
}

// Admit attempts to admit one stream; see AdmitBatch.
func (c *Controller) Admit(sp Spec) (*Result, error) {
	return c.AdmitBatch([]Spec{sp})
}

// AdmitBatch atomically admits a batch of streams: either every
// candidate joins the running set (and every deadline — old and new —
// still holds), or nothing changes and the Result carries the
// Rejection. Admission order within the batch follows specs order.
func (c *Controller) AdmitBatch(specs []Spec) (*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("admit: empty batch")
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	n := c.set.Len()
	cand := &stream.Set{
		Topology:      c.topo,
		RouterLatency: c.set.RouterLatency,
		Streams:       make([]*stream.Stream, n, n+len(specs)),
	}
	copy(cand.Streams, c.set.Streams)
	for k, sp := range specs {
		path, err := c.router.Route(sp.Src, sp.Dst)
		if err != nil {
			return nil, fmt.Errorf("admit: candidate %d: %w", k, err)
		}
		d := sp.Deadline
		if d == 0 {
			d = sp.Period
		}
		cand.Streams = append(cand.Streams, &stream.Stream{
			ID:       stream.ID(n + k),
			Src:      sp.Src,
			Dst:      sp.Dst,
			Priority: sp.Priority,
			Period:   sp.Period,
			Length:   sp.Length,
			Deadline: d,
			Latency:  stream.NetworkLatencyWithRouter(path.Hops(), sp.Length, cand.RouterLatency),
			Path:     path,
		})
	}

	// The candidate analyzer validates the combined set (bad parameters
	// surface here) and carries the HP sets the dirty set is read from;
	// it warm-starts the HP fixpoint from the live analyzer.
	a, err := c.analyzer.Extend(cand)
	if err != nil {
		return nil, fmt.Errorf("admit: %w", err)
	}
	newIDs := make([]stream.ID, len(specs))
	for k := range specs {
		newIDs[k] = stream.ID(n + k)
	}
	dirty, err := a.Dependents(newIDs...)
	if err != nil {
		return nil, err
	}
	us, err := a.CalUBatchParallel(dirty, c.cfg.Workers)
	if err != nil {
		return nil, err
	}

	// Merge cached and recomputed bounds; candidates are always dirty
	// (every HP set contains its owner), so every slot is filled.
	newU := make([]int, cand.Len())
	copy(newU, c.u)
	for k, id := range dirty {
		newU[id] = us[k]
	}

	res := &Result{Recomputed: len(dirty), Report: core.NewReport(cand, newU)}
	c.stats.Recomputed += int64(len(dirty))
	c.stats.Cached += int64(cand.Len() - len(dirty))

	if !res.Report.Feasible {
		// Roll back: the candidate state was never installed. Name the
		// first violated stream.
		for _, v := range res.Report.Verdicts {
			if v.Feasible {
				continue
			}
			res.Rejection = &Rejection{Stream: v.ID, U: v.U, Deadline: v.Deadline}
			if int(v.ID) < n {
				res.Rejection.Handle = c.handles[v.ID]
			} else {
				res.Rejection.New = true
			}
			break
		}
		c.stats.Rejected++
		return res, nil
	}

	// Commit.
	res.Admitted = true
	res.Handles = make([]Handle, len(specs))
	for k := range specs {
		h := c.nextHandle
		c.nextHandle++
		res.Handles[k] = h
		c.handles = append(c.handles, h)
		c.byHandle[h] = n + k
	}
	c.set = cand
	c.analyzer = a
	c.u = newU
	c.stats.Admitted += int64(len(specs))
	return res, nil
}

// Withdraw atomically removes the given streams, recomputing only the
// bounds their departure can lower. It returns the number of bounds
// recomputed. Withdrawal cannot break feasibility — removing streams
// only removes blocking — but the cached report tracks the tighter
// bounds immediately.
func (c *Controller) Withdraw(handles ...Handle) (int, error) {
	if len(handles) == 0 {
		return 0, fmt.Errorf("admit: empty withdrawal")
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	leaving := make(map[int]bool, len(handles))
	ids := make([]stream.ID, 0, len(handles))
	for _, h := range handles {
		i, ok := c.byHandle[h]
		if !ok {
			return 0, fmt.Errorf("admit: no stream with handle %d", h)
		}
		if leaving[i] {
			return 0, fmt.Errorf("admit: handle %d repeated", h)
		}
		leaving[i] = true
		ids = append(ids, stream.ID(i))
	}

	// Dirty set read off the old HP sets (the ones still containing
	// the leaving streams), then mapped to the compacted ID space.
	dirtyOld, err := c.analyzer.Dependents(ids...)
	if err != nil {
		return 0, err
	}

	n := c.set.Len()
	survivors := &stream.Set{
		Topology:      c.topo,
		RouterLatency: c.set.RouterLatency,
		Streams:       make([]*stream.Stream, 0, n-len(handles)),
	}
	newIdx := make([]int, n) // old index -> new index, -1 when leaving
	newHandles := make([]Handle, 0, n-len(handles))
	oldIdx := make([]int, 0, n-len(handles))
	for i, s := range c.set.Streams {
		if leaving[i] {
			newIdx[i] = -1
			continue
		}
		newIdx[i] = len(survivors.Streams)
		if int(s.ID) != len(survivors.Streams) {
			s2 := *s
			s2.ID = stream.ID(len(survivors.Streams))
			s = &s2
		}
		survivors.Streams = append(survivors.Streams, s)
		newHandles = append(newHandles, c.handles[i])
		oldIdx = append(oldIdx, i)
	}

	a, err := core.NewAnalyzer(survivors)
	if err != nil {
		return 0, fmt.Errorf("admit: %w", err)
	}
	dirty := make([]stream.ID, 0, len(dirtyOld))
	for _, id := range dirtyOld {
		if ni := newIdx[id]; ni >= 0 {
			dirty = append(dirty, stream.ID(ni))
		}
	}
	us, err := a.CalUBatchParallel(dirty, c.cfg.Workers)
	if err != nil {
		return 0, err
	}
	newU := make([]int, survivors.Len())
	for ni, oi := range oldIdx {
		newU[ni] = c.u[oi]
	}
	for k, id := range dirty {
		newU[id] = us[k]
	}

	// Commit.
	c.set = survivors
	c.analyzer = a
	c.u = newU
	c.handles = newHandles
	c.byHandle = make(map[Handle]int, len(newHandles))
	for i, h := range newHandles {
		c.byHandle[h] = i
	}
	c.stats.Withdrawn += int64(len(handles))
	c.stats.Recomputed += int64(len(dirty))
	c.stats.Cached += int64(survivors.Len() - len(dirty))
	return len(dirty), nil
}
