package core

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/stream"
)

// Calc is a reusable Cal_U calculator bound to one Analyzer: it owns a
// scratch Arena and an element buffer that are recycled across calls,
// so computing bounds for a whole set — or for the same set over and
// over, as the sensitivity searches and the simulation-study period
// inflation do — stops allocating once the buffers have warmed up.
//
// A Calc is not safe for concurrent use; CalUBatchParallel gives every
// worker its own. The Analyzer methods of the same names are one-shot
// conveniences that create a throwaway Calc.
type Calc struct {
	a     *Analyzer
	ar    Arena
	elems []Element // scratch rows handed to newDiagram, rebuilt per call
}

// NewCalc returns a fresh calculator for the analyzer's stream set.
func (a *Analyzer) NewCalc() *Calc { return &Calc{a: a} }

// elements fills the scratch element buffer with the diagram rows for
// id's HP set (owner excluded). The returned slice is owned by the
// next diagram built from it and invalidated by the next call.
func (c *Calc) elements(id stream.ID) []Element {
	h := c.a.hp(int(id))
	c.elems = c.elems[:0]
	for i := range h.Elems {
		e := &h.Elems[i]
		if e.ID == h.Owner {
			continue
		}
		s := c.a.Set.Get(e.ID)
		c.elems = append(c.elems, Element{
			ID:       s.ID,
			Priority: s.Priority,
			Period:   s.Period,
			Length:   s.Length,
			Mode:     e.Mode,
			Via:      e.Via,
		})
	}
	return c.elems
}

// CalU computes the delay upper bound of the given stream with the
// deadline as horizon (the paper's Cal_U). It returns -1 when the
// bound does not exist within the deadline (the stream is infeasible).
// The diagram it scans spans the deadline only when it must; see
// CalUHorizon.
func (c *Calc) CalU(id stream.ID) (int, error) {
	s := c.a.Set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	return c.CalUHorizon(id, s.Deadline)
}

// CalUHorizon computes the delay upper bound with an explicit horizon:
// the bound the modified diagram over the whole horizon gives, or -1
// when that diagram holds fewer FREE slots than the stream's latency.
// Only an HP set with indirect elements is laid out over the whole
// horizon; a direct-only diagram grows until the bound appears.
func (c *Calc) CalUHorizon(id stream.ID, horizon int) (int, error) {
	s := c.a.Set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	return c.bound(c.elements(id), s.Latency, horizon)
}

// bound is CalUHorizon over an explicit HP element list (owned by the
// diagram it builds) for a stream with the given latency.
//
// A diagram with an indirect element is built over the whole horizon
// and modified: a release in any column re-lays out the rows below the
// releasing row over the whole diagram, so a shorter diagram can
// differ from the full one's prefix. Without indirect elements Modify
// changes nothing and the layout is window-local — a window cut off at
// h claims the same first free slots before h as the whole window — so
// the first h columns of the result row equal the full diagram's. The
// scan then needs only the prefix that holds the bound: the diagram
// starts at the first power of two at or above max(latency, 64) and
// doubles, capped at the horizon, until the bound appears.
func (c *Calc) bound(elems []Element, latency, horizon int) (int, error) {
	if horizon < 1 {
		return 0, fmt.Errorf("core: horizon %d must be positive", horizon)
	}
	hasIndirect := false
	for i := range elems {
		if elems[i].Mode == Indirect {
			hasIndirect = true
			break
		}
	}
	h := horizon
	if !hasIndirect {
		h = 64
		for h < latency && h <= horizon/2 {
			h *= 2
		}
		if h < latency || h > horizon {
			h = horizon
		}
	}
	c.ar.Reset()
	d, err := newDiagram(elems, h, &c.ar)
	if err != nil {
		return 0, err
	}
	if hasIndirect {
		d.Modify()
		return d.DelayUpperBound(latency), nil
	}
	for {
		u := d.DelayUpperBound(latency)
		if u >= 0 || h == horizon {
			return u, nil
		}
		if h > horizon/2 {
			h = horizon
		} else {
			h *= 2
		}
		if err := d.Grow(h); err != nil {
			return 0, err
		}
	}
}

// CalUSearchCap computes the delay upper bound with a doubling-horizon
// search capped at maxHorizon; see Analyzer.CalUSearchCap for the
// search, stability-margin and skip semantics. The search grows a
// single initial diagram incrementally — the construction is
// window-local, so doubling the horizon lays out only the new columns
// — and applies Modify to a clone per horizon (Modify releases are not
// window-local, so the unmodified original is the one that grows).
// Sets whose HP elements are all direct skip the clone entirely:
// Modify would release nothing.
func (c *Calc) CalUSearchCap(id stream.ID, maxHorizon int) (int, error) {
	s := c.a.Set.Get(id)
	if s == nil {
		return 0, fmt.Errorf("core: no stream %d", id)
	}
	if maxHorizon < 1 {
		return 0, fmt.Errorf("core: max horizon %d must be positive", maxHorizon)
	}
	return c.search(c.elements(id), s.Deadline, s.Latency, maxHorizon)
}

// search is CalUSearchCap over an explicit HP element list (owned by
// the diagrams it builds) for a stream with the given deadline and
// latency.
func (c *Calc) search(elems []Element, deadline, latency, maxHorizon int) (int, error) {
	margin, hasIndirect := 0, false
	for i := range elems {
		if elems[i].Period > margin {
			margin = elems[i].Period
		}
		if elems[i].Mode == Indirect {
			hasIndirect = true
		}
	}
	// The margin is max period × (elements + 1); with 2^21-slot
	// periods and enough elements the product overflows on 32-bit
	// ints. Any margin at or beyond MaxSearchHorizon already forces
	// the search to its cap, so clamping there preserves behavior
	// while staying in range.
	if margin > MaxSearchHorizon/(len(elems)+1) {
		margin = MaxSearchHorizon
	} else {
		margin *= len(elems) + 1
	}
	first := deadline
	if latency > first {
		first = latency
	}
	if first < 1 {
		first = 1
	}
	if first > maxHorizon {
		return -1, nil
	}
	// A bound is never below the latency, so no horizon under
	// margin+latency can satisfy the acceptance test: start at the
	// first horizon that can, or at the last one.
	h := first
	for h-latency < margin && h <= maxHorizon/2 {
		h *= 2
	}
	start := h
	c.ar.Reset()
	init, err := newDiagram(elems, h, &c.ar)
	if err != nil {
		return 0, err
	}
	best := -1
	for {
		d := init
		if hasIndirect {
			d = init.clone(&c.ar)
			d.Modify()
		}
		if u := d.DelayUpperBound(latency); u >= 0 {
			best = u
			if u+margin <= h {
				return u, nil
			}
		}
		if h > maxHorizon/2 {
			break
		}
		h *= 2
		if err := init.Grow(h); err != nil {
			return 0, err
		}
	}
	if best >= 0 || !hasIndirect {
		return best, nil
	}
	// No horizon from the start on found a bound. The result is the
	// bound of the last skipped horizon that finds one, so visit them
	// largest first. Without indirect elements the diagram is
	// window-local and a skipped prefix could not have found one
	// either.
	for h = start; h > first; {
		h /= 2
		c.ar.Reset()
		d, err := newDiagram(elems, h, &c.ar)
		if err != nil {
			return 0, err
		}
		d.Modify()
		if u := d.DelayUpperBound(latency); u >= 0 {
			return u, nil
		}
	}
	return -1, nil
}

// CalUBatchParallel computes the delay upper bound of each of ids on
// the grid.MapWorkers pool (workers <= 0 uses GOMAXPROCS); the returned
// slice aligns with ids. Every worker holds its own Calc, so the
// scratch arenas stay goroutine-local. DetermineFeasibility runs it
// with one worker over every stream; the incremental admission
// controller (package admit) runs it over the dirty set of a mutation
// (see Dependents).
//
// Any failure yields (nil, error) — a partial batch never escapes — and
// the error names the failing stream with the smallest position in
// ids, whatever the worker count.
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
	return grid.MapWorkers(len(ids), workers, a.NewCalc, func(c *Calc, k int) (int, error) {
		u, err := c.CalU(ids[k])
		if err != nil {
			return 0, fmt.Errorf("core: calU stream %d: %w", ids[k], err)
		}
		return u, nil
	})
}
