package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// DetermineFeasibilityParallel is DetermineFeasibility with the
// per-stream Cal_U computations fanned out over a worker pool. Every
// stream's bound only reads the shared HP sets and builds its own
// timing diagram, so the streams are embarrassingly parallel; results
// are identical to the sequential test. workers <= 0 uses GOMAXPROCS.
//
// Each worker gets its own Calc, so the scratch arena behind the
// diagram buffers is strictly goroutine-local and recycled across all
// streams the worker processes.
func DetermineFeasibilityParallel(set *stream.Set, workers int) (*Report, error) {
	a, err := NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	return parallelFeasibilityPool(set, workers, func() func(stream.ID) (int, error) {
		return a.NewCalc().CalU
	})
}

// streamErr pairs a failed stream with its error so the propagated
// error is deterministic regardless of worker scheduling.
type streamErr struct {
	id  stream.ID
	err error
}

// parallelFeasibility runs calU over every stream of the set from a
// pool of workers. It is the seam DetermineFeasibilityParallel is
// built on; tests inject failing calU implementations to pin the
// error-path semantics:
//
//   - any calU error makes the whole call return (nil, error) — a
//     partially-filled report never escapes, so unprocessed zero-valued
//     verdicts can never masquerade as "infeasible";
//   - after the first failure the remaining jobs are skipped rather
//     than computed (their verdicts would be discarded anyway);
//   - among the failures actually observed, the smallest stream ID's
//     error is propagated, so a single failing stream (the common
//     case) reports identically for every worker count and schedule.
func parallelFeasibility(set *stream.Set, workers int, calU func(stream.ID) (int, error)) (*Report, error) {
	return parallelFeasibilityPool(set, workers, func() func(stream.ID) (int, error) { return calU })
}

// parallelFeasibilityPool is parallelFeasibility with a per-worker
// calU factory: newCalU runs once in each worker goroutine, so a
// stateful calculator (a Calc and its arena) is confined to that
// worker without synchronization.
func parallelFeasibilityPool(set *stream.Set, workers int, newCalU func() func(stream.ID) (int, error)) (*Report, error) {
	ids := make([]stream.ID, set.Len())
	for i := range ids {
		ids[i] = stream.ID(i)
	}
	us, err := calUPool(ids, workers, newCalU)
	if err != nil {
		return nil, fmt.Errorf("core: parallel feasibility: %w", err)
	}
	rep := &Report{Feasible: true, Verdicts: make([]Verdict, set.Len())}
	for k, id := range ids {
		s := set.Get(id)
		rep.Verdicts[id] = Verdict{
			ID: id, U: us[k], Deadline: s.Deadline,
			Feasible: us[k] >= 0 && us[k] <= s.Deadline,
		}
		if !rep.Verdicts[id].Feasible {
			rep.Feasible = false
		}
	}
	return rep, nil
}

// CalUBatchParallel computes the delay upper bound of each of ids over
// a pool of workers (workers <= 0 uses GOMAXPROCS); the returned slice
// aligns with ids. Every worker holds its own Calc, so the scratch
// arenas stay goroutine-local exactly as in
// DetermineFeasibilityParallel. The incremental admission controller
// (package admit) uses this to recompute only the dirty set of a
// mutation (see Dependents) through the pooled path.
//
// The error semantics match the full parallel test: any failure yields
// (nil, error), remaining jobs are skipped after the first failure, and
// among observed failures the smallest stream ID's error is propagated.
func (a *Analyzer) CalUBatchParallel(ids []stream.ID, workers int) ([]int, error) {
	for _, id := range ids {
		if a.Set.Get(id) == nil {
			return nil, fmt.Errorf("core: no stream %d", id)
		}
		// Materialize each batch member's HP set before the fan-out:
		// lazy fills (Extend-built analyzers) are not synchronized, and
		// each worker only ever reads the rows of its own ids.
		a.hp(int(id))
	}
	us, err := calUPool(ids, workers, func() func(stream.ID) (int, error) {
		return a.NewCalc().CalU
	})
	if err != nil {
		return nil, fmt.Errorf("core: parallel calU: %w", err)
	}
	return us, nil
}

// calUPool fans calU over ids from a pool of workers, returning the
// bounds aligned with ids. See parallelFeasibility for the pinned
// error-path semantics; the returned error names the smallest failing
// stream ID and wraps its calU error.
func calUPool(ids []stream.ID, workers int, newCalU func() func(stream.ID) (int, error)) ([]int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	us := make([]int, len(ids))
	if workers <= 1 {
		// One worker or one job: run on the calling goroutine. The
		// first failure is then the only one observed.
		calU := newCalU()
		for k, id := range ids {
			u, err := calU(id)
			if err != nil {
				return nil, fmt.Errorf("stream %d: %w", id, err)
			}
			us[k] = u
		}
		return us, nil
	}
	// Buffered so the producer never blocks even if workers bail out
	// early.
	jobs := make(chan int, len(ids))
	errs := make(chan streamErr, len(ids))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calU := newCalU()
			for k := range jobs {
				if failed.Load() {
					continue // drain: the result is already doomed
				}
				u, err := calU(ids[k])
				if err != nil {
					failed.Store(true)
					errs <- streamErr{ids[k], err}
					continue
				}
				//rtwlint:ignore unsyncshared us slots are disjoint per job index; wg.Wait orders the reads
				us[k] = u
			}
		}()
	}
	for k := range ids {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	close(errs)
	// The error check must precede any use of us: once any stream
	// failed, zero-valued slots of skipped streams carry no meaning.
	var fails []streamErr
	for e := range errs {
		fails = append(fails, e)
	}
	if len(fails) > 0 {
		sort.Slice(fails, func(i, j int) bool { return fails[i].id < fails[j].id })
		return nil, fmt.Errorf("stream %d: %w", fails[0].id, fails[0].err)
	}
	return us, nil
}
