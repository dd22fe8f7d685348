package core

import (
	"fmt"

	"repro/internal/stream"
)

// Sensitivity answers the capacity-planning questions a host processor
// faces when admitting new traffic: how much bigger could a stream's
// messages get, or how much faster could it run, before some deadline
// in the set breaks? Both searches re-validate and re-analyse the set
// per candidate value, but share one Calc across candidates: the HP
// sets depend only on paths and priorities, which the searches never
// touch, and the diagram scratch buffers amortize over the whole
// binary search. Both use the monotonicity of interference in C and
// 1/T.

// feasibilityProbe builds the per-candidate feasibility check the
// sensitivity searches share: validate the mutated set (same check
// NewAnalyzer would run), then test feasibility with a reused Calc,
// stopping at the first stream that misses its deadline.
func feasibilityProbe(set *stream.Set) func() (bool, error) {
	var calc *Calc
	return func() (bool, error) {
		if err := set.Validate(); err != nil {
			return false, err
		}
		if calc == nil {
			calc = (&Analyzer{Set: set, hps: BuildHPSets(set)}).NewCalc()
		}
		for _, s := range set.Streams {
			u, err := calc.CalU(s.ID)
			if err != nil {
				return false, err
			}
			if !newVerdict(s, u).Feasible {
				return false, nil
			}
		}
		return true, nil
	}
}

// MaxFeasibleLength returns the largest message length for stream id
// (keeping everything else fixed) such that the whole set stays
// feasible, searched within [1, limit]. It returns 0 when the set is
// infeasible even at length 1.
func MaxFeasibleLength(set *stream.Set, id stream.ID, limit int) (int, error) {
	s := set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	if limit < 1 {
		return 0, fmt.Errorf("core: limit %d must be >= 1", limit)
	}
	orig := s.Length
	origLat := s.Latency
	defer func() {
		s.Length = orig
		s.Latency = origLat
	}()
	probe := feasibilityProbe(set)
	try := func(c int) (bool, error) {
		s.Length = c
		s.Latency = stream.NetworkLatency(s.Path.Hops(), c)
		return probe()
	}
	// Binary search for the last feasible value: feasibility is
	// monotone non-increasing in C (longer messages only add demand
	// and latency).
	lo, hi := 0, limit // lo = known-feasible (0 = none), hi = first unknown
	okAt := 0
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := try(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			okAt = mid
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return okAt, nil
}

// MinFeasiblePeriod returns the smallest period for stream id (with the
// deadline tracking the period) such that the whole set stays feasible,
// searched within [floor, current period]. It returns 0 when even the
// current period is infeasible.
func MinFeasiblePeriod(set *stream.Set, id stream.ID, floor int) (int, error) {
	s := set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	if floor < 1 {
		return 0, fmt.Errorf("core: floor %d must be >= 1", floor)
	}
	if floor > s.Period {
		return 0, fmt.Errorf("core: floor %d above current period %d", floor, s.Period)
	}
	origT, origD := s.Period, s.Deadline
	defer func() {
		s.Period = origT
		s.Deadline = origD
	}()
	probe := feasibilityProbe(set)
	try := func(t int) (bool, error) {
		s.Period = t
		s.Deadline = t
		return probe()
	}
	// Feasibility is monotone non-decreasing in T: shorter periods add
	// demand and tighten the deadline.
	ok, err := try(origT)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	lo, hi := floor, origT // hi = known feasible
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := try(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, nil
}
