package core

import (
	"math/rand"
	"testing"
)

// fullHorizonBound is Cal_U as it stood before the direct-only early
// exit, kept as the oracle for Calc.bound: the modified diagram over
// the whole horizon, scanned for the latency.
func fullHorizonBound(elems []Element, latency, horizon int) (int, error) {
	d, err := NewDiagram(elems, horizon)
	if err != nil {
		return 0, err
	}
	d.Modify()
	return d.DelayUpperBound(latency), nil
}

// CalUBranches counts the routes Calc.bound takes, derived from the
// HP modes and the oracle's bound.
type CalUBranches struct {
	DirectEarly     int // direct-only, bound found before the diagram reached the horizon
	DirectAtHorizon int // direct-only, bound found once grown to the horizon
	DirectMissed    int // direct-only, grown to the horizon without a bound
	Indirect        int // laid out and modified over the whole horizon
}

// count classifies one bound u of a stream with the given latency
// over the given horizon. A direct-only diagram doubles from 64 (or
// the first power of two at or above the latency) and stops at the
// first size that holds u, so it stops early iff the first power of
// two at or above max(u, 64) is below the horizon.
func (b *CalUBranches) count(elems []Element, u, horizon int) {
	for i := range elems {
		if elems[i].Mode == Indirect {
			b.Indirect++
			return
		}
	}
	if u < 0 {
		b.DirectMissed++
		return
	}
	h := 64
	for h < u {
		h *= 2
	}
	if h < horizon {
		b.DirectEarly++
	} else {
		b.DirectAtHorizon++
	}
}

// RequireAll fails the test unless every route the acceptance needs —
// an early direct-only exit, a direct-only miss and an indirect
// diagram — was taken at least once.
func (b *CalUBranches) RequireAll(t testing.TB) {
	t.Helper()
	t.Logf("routes: %+v", *b)
	if b.DirectEarly == 0 || b.DirectMissed == 0 || b.Indirect == 0 {
		t.Fatalf("a Cal_U route went unexercised: %+v", *b)
	}
}

// CheckCalUOracle pins Calc.CalU to the full-horizon oracle —
// Analyzer.Diagram at the deadline, then DelayUpperBound at the
// latency — for every stream of the analyzer's set, through one reused
// Calc, and counts the routes taken. It is exported for
// calu_oracle_ext_test.go, whose sets come from packages that import
// core.
func CheckCalUOracle(t testing.TB, a *Analyzer, br *CalUBranches, label string) {
	t.Helper()
	c := a.NewCalc()
	for _, s := range a.Set.Streams {
		got, err := c.CalU(s.ID)
		if err != nil {
			t.Fatalf("%s stream %d: CalU: %v", label, s.ID, err)
		}
		d, err := a.Diagram(s.ID, s.Deadline)
		if err != nil {
			t.Fatalf("%s stream %d: oracle: %v", label, s.ID, err)
		}
		if want := d.DelayUpperBound(s.Latency); got != want {
			t.Fatalf("%s stream %d (deadline %d, latency %d): CalU = %d, full-horizon oracle = %d",
				label, s.ID, s.Deadline, s.Latency, got, want)
		}
		br.count(a.NewCalc().elements(s.ID), got, s.Deadline)
	}
}

// TestCalUMatchesFullHorizonOracle pins Calc.bound to the full-horizon
// oracle on the differential battery's 1200 element lists (with
// latencies and horizons that make bounds appear early, at the horizon
// and not at all) and on random mesh sets through CalU.
func TestCalUMatchesFullHorizonOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	c := &Calc{}
	var br CalUBranches
	sets := 1200
	if testing.Short() {
		sets = 200
	}
	for trial := 0; trial < sets; trial++ {
		elems := randDiffElems(rng)
		latency := 1 + rng.Intn(80)
		horizon := 20 + rng.Intn(500)
		want, err := fullHorizonBound(elems, latency, horizon)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.bound(append([]Element(nil), elems...), latency, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("elements %+v latency %d horizon %d: bound = %d, full-horizon oracle = %d",
				elems, latency, horizon, got, want)
		}
		br.count(elems, got, horizon)
	}
	for trial := 0; trial < sets/20; trial++ {
		a, err := NewAnalyzer(randomMeshSet(t, rng, 24))
		if err != nil {
			t.Fatal(err)
		}
		CheckCalUOracle(t, a, &br, "mesh set")
	}
	br.RequireAll(t)
}
