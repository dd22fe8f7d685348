package core

import (
	"fmt"

	"repro/internal/stream"
)

// Analyzer computes delay upper bounds for a validated stream set. It
// plays the role of the paper's host processor: it holds all traffic
// information and runs the feasibility test before the job is started.
type Analyzer struct {
	Set *stream.Set
	st  *hpState
	// hps caches materialized HP sets per stream; an entry with nil
	// Elems has not been built yet (every real HP set contains at least
	// its owner). NewAnalyzer materializes everything eagerly; Extend
	// leaves rows lazy, so an admission that recomputes three bounds
	// never pays for fifty HP-set materializations. Lazy fills are not
	// synchronized — CalUBatchParallel touches its rows up front
	// before fanning out.
	hps []HPSet
}

// NewAnalyzer validates the set and builds every HP set.
func NewAnalyzer(set *stream.Set) (*Analyzer, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	st := buildHPState(set)
	a := &Analyzer{Set: set, st: st, hps: make([]HPSet, set.Len())}
	for j := range a.hps {
		a.hps[j] = st.materialize(j)
	}
	return a, nil
}

// Extend returns an analyzer for cand, which must extend a's stream
// set by appending streams (the first Len() entries must be the very
// same streams; topology and router latency must match). The HP-set
// fixpoint is warm-started from a's converged state — the admission
// fast path: adding streams only grows HP sets, so the old state is a
// valid starting point and only the new streams' pairwise overlaps are
// computed. HP sets of the extended analyzer materialize lazily on
// first use. The original analyzer is not modified and remains valid.
func (a *Analyzer) Extend(cand *stream.Set) (*Analyzer, error) {
	n := a.Set.Len()
	if cand.Len() < n {
		return nil, fmt.Errorf("core: extend: candidate has %d streams, base has %d", cand.Len(), n)
	}
	if cand.Topology != a.Set.Topology || cand.RouterLatency != a.Set.RouterLatency {
		return nil, fmt.Errorf("core: extend: candidate machine differs from base")
	}
	for j := 0; j < n; j++ {
		if cand.Streams[j] != a.Set.Streams[j] {
			return nil, fmt.Errorf("core: extend: stream %d differs from base", j)
		}
	}
	// The base prefix was validated when the base analyzer was built
	// (and is pinned pointer-identical above), so only the appended
	// tail needs checking.
	if err := cand.ValidateFrom(n); err != nil {
		return nil, err
	}
	return &Analyzer{Set: cand, st: a.st.extend(cand), hps: make([]HPSet, cand.Len())}, nil
}

// hp returns stream j's HP set, materializing it on first use.
func (a *Analyzer) hp(j int) *HPSet {
	if a.hps[j].Elems == nil {
		a.hps[j] = a.st.materialize(j)
	}
	return &a.hps[j]
}

// HP returns the HP set of the given stream.
func (a *Analyzer) HP(id stream.ID) (HPSet, error) {
	if id < 0 || int(id) >= len(a.hps) {
		return HPSet{}, fmt.Errorf("core: no stream %d", id)
	}
	return *a.hp(int(id)), nil
}

// BDG returns the blocking dependency graph of the given stream.
func (a *Analyzer) BDG(id stream.ID) (*BDG, error) {
	hp, err := a.HP(id)
	if err != nil {
		return nil, err
	}
	return NewBDG(id, hp.WithoutOwner()), nil
}

// Diagram builds the final (modified) timing diagram for the given
// stream over the given horizon.
func (a *Analyzer) Diagram(id stream.ID, horizon int) (*Diagram, error) {
	if _, err := a.HP(id); err != nil {
		return nil, err
	}
	d, err := NewDiagram(a.NewCalc().elements(id), horizon)
	if err != nil {
		return nil, err
	}
	d.Modify()
	return d, nil
}

// InitialDiagram builds the initial (pre-Modify) timing diagram, i.e.
// every element treated as direct — the paper's Figure 7 view.
func (a *Analyzer) InitialDiagram(id stream.ID, horizon int) (*Diagram, error) {
	if _, err := a.HP(id); err != nil {
		return nil, err
	}
	return NewDiagram(a.NewCalc().elements(id), horizon)
}

// CalU computes the delay upper bound of the given stream with the
// deadline as horizon (the paper's Cal_U). It returns -1 when the bound
// does not exist within the deadline (the stream is infeasible). The
// bound is the one the modified diagram over the whole deadline gives,
// but only a diagram with indirect elements is laid out that far; see
// Calc.CalUHorizon.
//
// CalU and CalUSearchCap are one-shot conveniences over a throwaway
// Calc; batch callers should hold a Calc (see NewCalc) so its scratch
// buffers amortize across calls.
func (a *Analyzer) CalU(id stream.ID) (int, error) {
	return a.NewCalc().CalU(id)
}

// MaxSearchHorizon is the widest CalUSearchCap search, for bounds
// without a deadline cap. A bound not found within this many flit
// times means the HP demand saturates the stream's capacity.
const MaxSearchHorizon = 1 << 21

// CalUSearchCap computes the delay upper bound on doubling horizons,
// starting from the deadline or the latency, whichever is larger, up
// to the last horizon within maxHorizon; it returns -1 when no bound
// exists within maxHorizon. Evaluation harnesses use a cap near the
// simulated time — a bound beyond the experiment horizon carries no
// information and is expensive to chase.
//
// The diagram construction is window-local, but a period window
// truncated by the horizon can place (and release) demand differently
// from its complete version, and via chains propagate such boundary
// effects inward by at most one period per chain hop. A bound u found
// at horizon h is therefore only accepted once u plus that stability
// margin (max HP period × (HP elements + 1)) fits inside h. Otherwise
// the bound found at the largest horizon is returned, and a shorter
// horizon's bound only when no longer horizon finds one.
//
// A bound is never below the stream's latency, so no horizon under
// margin + latency can pass the acceptance test. The search skips
// those horizons: it starts at the first horizon that can, or at the
// last one when none can, and visits the skipped horizons, largest
// first, only when no horizon from the start on finds a bound. The
// result equals visiting every horizon in increasing order.
func (a *Analyzer) CalUSearchCap(id stream.ID, maxHorizon int) (int, error) {
	return a.NewCalc().CalUSearchCap(id, maxHorizon)
}

// Verdict is the feasibility result for one stream.
type Verdict struct {
	ID       stream.ID
	U        int // delay upper bound; -1 if not found within the deadline
	Deadline int
	Feasible bool // U >= 0 && U <= Deadline
}

// newVerdict applies the paper's verdict rule to stream s with bound u.
func newVerdict(s *stream.Stream, u int) Verdict {
	return Verdict{ID: s.ID, U: u, Deadline: s.Deadline, Feasible: u >= 0 && u <= s.Deadline}
}

// Report is the outcome of DetermineFeasibility for a whole set.
type Report struct {
	Verdicts []Verdict
	Feasible bool // all streams feasible
}

// NewReport builds the feasibility report of set from its delay upper
// bounds, u[i] being the bound of set.Streams[i]: the set is feasible
// iff every bound exists and is at most its stream's deadline. Every
// report — the offline test's and the admission controller's — is
// built here.
func NewReport(set *stream.Set, u []int) *Report {
	rep := &Report{Feasible: true, Verdicts: make([]Verdict, set.Len())}
	for i, s := range set.Streams {
		rep.Verdicts[i] = newVerdict(s, u[i])
		rep.Feasible = rep.Feasible && rep.Verdicts[i].Feasible
	}
	return rep
}

// DetermineFeasibility runs the paper's Determine-Feasibility: it
// computes U for every stream with one Calc and succeeds iff every U
// exists and is at most the stream's deadline.
func DetermineFeasibility(set *stream.Set) (*Report, error) {
	a, err := NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	ids := make([]stream.ID, set.Len())
	for i := range ids {
		ids[i] = stream.ID(i)
	}
	u, err := a.CalUBatchParallel(ids, 1)
	if err != nil {
		return nil, err
	}
	return NewReport(set, u), nil
}
