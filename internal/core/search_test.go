package core

import (
	"math/rand"
	"testing"
)

// forwardTrace records what the forward search oracle saw: the bound
// at every horizon it visited, in visiting order, and whether it ended
// on the early-return test.
type forwardTrace struct {
	horizons, bounds []int
	margin           int
	early            bool
}

// forwardSearch is the doubling-horizon search as it stood before the
// skip rule, kept as the oracle for Calc.search: it visits every
// horizon from max(deadline, latency, 1) upward, returns the first
// bound u with u+margin <= h, and otherwise the last bound found.
func forwardSearch(elems []Element, deadline, latency, maxHorizon int) (int, forwardTrace, error) {
	var tr forwardTrace
	var ar Arena
	margin, hasIndirect := 0, false
	for i := range elems {
		if elems[i].Period > margin {
			margin = elems[i].Period
		}
		if elems[i].Mode == Indirect {
			hasIndirect = true
		}
	}
	if margin > MaxSearchHorizon/(len(elems)+1) {
		margin = MaxSearchHorizon
	} else {
		margin *= len(elems) + 1
	}
	tr.margin = margin
	h := deadline
	if latency > h {
		h = latency
	}
	if h < 1 {
		h = 1
	}
	if h > maxHorizon {
		return -1, tr, nil
	}
	init, err := newDiagram(elems, h, &ar)
	if err != nil {
		return 0, tr, err
	}
	best := -1
	for {
		d := init
		if hasIndirect {
			d = init.clone(&ar)
			d.Modify()
		}
		u := d.DelayUpperBound(latency)
		tr.horizons = append(tr.horizons, h)
		tr.bounds = append(tr.bounds, u)
		if u >= 0 {
			best = u
			if u+margin <= h {
				tr.early = true
				return u, tr, nil
			}
		}
		if h > maxHorizon/2 {
			break
		}
		h *= 2
		if err := init.Grow(h); err != nil {
			return 0, tr, err
		}
	}
	return best, tr, nil
}

// searchPaths counts which route through the skip rule a search took,
// derived from the oracle's trace.
type searchPaths struct{ early, forced, fallback int }

// classify records the route the skip rule takes on a search the
// oracle traced: an early return, a start forced to the last horizon
// because none reaches margin+latency, or a result recovered from a
// skipped horizon after every later one found no bound.
func (p *searchPaths) classify(tr forwardTrace, latency, got int) {
	if len(tr.horizons) == 0 {
		return
	}
	if tr.early {
		p.early++
	}
	last := tr.horizons[len(tr.horizons)-1]
	start := 0
	for _, h := range tr.horizons {
		if h-latency >= tr.margin {
			start = h
			break
		}
	}
	if start == 0 && !tr.early {
		start = last
		p.forced++
	}
	if tr.early || got < 0 {
		return
	}
	for i, h := range tr.horizons {
		if h >= start && tr.bounds[i] >= 0 {
			return
		}
	}
	p.fallback++
}

// checkSearch pins Calc.search to the forward oracle on one element
// list at every cap 2^10..2^16.
func checkSearch(t *testing.T, c *Calc, paths *searchPaths, elems []Element, deadline, latency int, label string) {
	t.Helper()
	for lg := 10; lg <= 16; lg++ {
		maxHorizon := 1 << lg
		want, tr, err := forwardSearch(append([]Element(nil), elems...), deadline, latency, maxHorizon)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		got, err := c.search(append([]Element(nil), elems...), deadline, latency, maxHorizon)
		if err != nil {
			t.Fatalf("%s: search: %v", label, err)
		}
		if got != want {
			t.Fatalf("%s cap 2^%d: elements %+v deadline %d latency %d\nsearch = %d, forward oracle = %d (trace %v -> %v, margin %d)",
				label, lg, elems, deadline, latency, got, want, tr.horizons, tr.bounds, tr.margin)
		}
		paths.classify(tr, latency, got)
	}
}

// TestSearchMatchesForwardOracle pins the skip rule: starting the
// doubling search at the first horizon that can pass the stability
// test, and visiting the skipped horizons largest first only when no
// later one finds a bound, returns exactly what the forward search
// returns — over 1200 element lists drawn like the differential
// battery's, over the same lists with inflated and saturating periods,
// and over mesh stream sets with a third of their periods inflated.
// Each route of the skip rule must be taken.
func TestSearchMatchesForwardOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	c := &Calc{}
	var paths searchPaths
	sets := 1200
	if testing.Short() {
		sets = 200
	}
	for trial := 0; trial < sets; trial++ {
		elems := randDiffElems(rng)
		latency := 1 + rng.Intn(40)
		checkSearch(t, c, &paths, elems, latency+rng.Intn(200), latency, "battery")

		// Inflated periods push the margin past every cap; saturating
		// lengths make bounds appear and vanish as the horizon grows.
		scale := 1 + rng.Intn(3)
		if trial%2 == 0 {
			scale = 40 + rng.Intn(4000)
		}
		for i := range elems {
			elems[i].Period *= scale
			if trial%3 == 0 {
				elems[i].Length = 1 + rng.Intn(elems[i].Period)
			}
		}
		checkSearch(t, c, &paths, elems, latency+rng.Intn(60), latency, "inflated")
	}
	for trial := 0; trial < sets/20; trial++ {
		set := randomMeshSet(t, rng, 24)
		for _, s := range set.Streams {
			if rng.Intn(3) == 0 {
				s.Period *= 2 + rng.Intn(300)
				s.Deadline = s.Period
			}
		}
		a, err := NewAnalyzer(set)
		if err != nil {
			t.Fatal(err)
		}
		calc := a.NewCalc()
		for _, s := range set.Streams {
			want, _, err := forwardSearch(a.NewCalc().elements(s.ID), s.Deadline, s.Latency, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			got, err := calc.CalUSearchCap(s.ID, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("mesh set %d stream %d: CalUSearchCap = %d, forward oracle = %d", trial, s.ID, got, want)
			}
		}
	}
	t.Logf("routes: %d early returns, %d forced to the last horizon, %d recovered from a skipped horizon",
		paths.early, paths.forced, paths.fallback)
	if paths.early == 0 || paths.forced == 0 || paths.fallback == 0 {
		t.Fatalf("a route of the skip rule went unexercised: %+v", paths)
	}
}
