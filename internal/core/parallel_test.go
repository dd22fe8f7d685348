package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// batchReport is the feasibility report that CalUBatchParallel over
// every stream of set, at the given width, yields through NewReport.
func batchReport(t *testing.T, set *stream.Set, workers int) *Report {
	t.Helper()
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]stream.ID, set.Len())
	for i := range ids {
		ids[i] = stream.ID(i)
	}
	u, err := a.CalUBatchParallel(ids, workers)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return NewReport(set, u)
}

// checkBatchMatchesSequential pins the batch report at every width
// against DetermineFeasibility, and DetermineFeasibility against
// one-shot Cal_U per stream under the paper's verdict rule.
func checkBatchMatchesSequential(t *testing.T, label string, set *stream.Set) {
	t.Helper()
	seq, err := DetermineFeasibility(set)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &Report{Feasible: true}
	for _, s := range set.Streams {
		u, err := a.CalU(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		ok := u >= 0 && u <= s.Deadline
		oracle.Verdicts = append(oracle.Verdicts, Verdict{ID: s.ID, U: u, Deadline: s.Deadline, Feasible: ok})
		oracle.Feasible = oracle.Feasible && ok
	}
	if !reflect.DeepEqual(seq, oracle) {
		t.Fatalf("%s: DetermineFeasibility %+v, one-shot oracle %+v", label, seq, oracle)
	}
	for _, workers := range []int{0, 1, 2, 7, 33} {
		if par := batchReport(t, set, workers); !reflect.DeepEqual(par, seq) {
			t.Fatalf("%s workers %d: batch %+v, sequential %+v", label, workers, par, seq)
		}
	}
}

// TestParallelMatchesSequential: the batch path returns exactly the
// sequential verdicts for random sets and all worker counts.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		checkBatchMatchesSequential(t, fmt.Sprintf("trial %d", trial), randomMeshSet(t, rng, 4+rng.Intn(10)))
	}
}

// TestParallelHammer drives the batch path at many widths over larger
// randomized sets. It exists to run under `go test -race` (make
// test-race): every call exercises the per-worker Calcs, the shared
// read-only HP sets and the pool's result merge against the race
// detector. The pool's error paths are hammered in package grid.
func TestParallelHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		checkBatchMatchesSequential(t, fmt.Sprintf("hammer trial %d", trial), randomMeshSet(t, rng, 6+rng.Intn(12)))
	}
}

func TestParallelOnWorkedExample(t *testing.T) {
	rep := batchReport(t, paperExample(t), 3)
	want := []int{7, 8, 26, 30, 33}
	for i, v := range rep.Verdicts {
		if v.U != want[i] {
			t.Fatalf("U_%d = %d, want %d", i, v.U, want[i])
		}
	}
	if !rep.Feasible {
		t.Fatal("worked example should be feasible")
	}
}

// TestParallelRejectsInvalidSet: an invalid set is refused before any
// bound is computed.
func TestParallelRejectsInvalidSet(t *testing.T) {
	set := paperExample(t)
	set.Streams[0].Latency = 1
	if _, err := DetermineFeasibility(set); err == nil {
		t.Fatal("accepted invalid set")
	}
}

// TestNewReport pins the verdict rule at its edges: a missing bound and
// a bound past the deadline are infeasible, a bound at the deadline is
// feasible, and an empty set is feasible.
func TestNewReport(t *testing.T) {
	set := paperExample(t) // deadlines 15, 10, 40, 45, 50
	rep := NewReport(set, []int{15, 8, -1, 46, 50})
	want := []bool{true, true, false, false, true}
	for i, v := range rep.Verdicts {
		if v.ID != stream.ID(i) || v.Deadline != set.Streams[i].Deadline || v.Feasible != want[i] {
			t.Fatalf("verdict %d = %+v, want feasible %v", i, v, want[i])
		}
	}
	if rep.Feasible {
		t.Fatal("report with infeasible verdicts is feasible")
	}
	if rep := NewReport(set, []int{7, 8, 26, 30, 33}); !rep.Feasible {
		t.Fatalf("worked-example bounds infeasible: %+v", rep)
	}
	if rep := NewReport(&stream.Set{}, nil); !rep.Feasible || len(rep.Verdicts) != 0 {
		t.Fatalf("empty set: %+v", rep)
	}
}

func TestMaxFeasibleLength(t *testing.T) {
	set := paperExample(t)
	// M1 currently has C=2 and slack; it can grow but not unboundedly
	// (it shares channels with M2 and M3 whose deadlines bind).
	got, err := MaxFeasibleLength(set, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got < 2 {
		t.Fatalf("MaxFeasibleLength = %d, below the current feasible length 2", got)
	}
	if got >= 60 {
		t.Fatalf("MaxFeasibleLength = %d, expected a binding constraint below the limit", got)
	}
	// The set must be untouched afterwards.
	if set.Get(1).Length != 2 {
		t.Fatalf("stream mutated: length %d", set.Get(1).Length)
	}
	rep, err := DetermineFeasibility(set)
	if err != nil || !rep.Feasible {
		t.Fatalf("set changed by sensitivity probe: %v %v", rep, err)
	}
	// Setting M1 to the reported maximum must be feasible, +1 must not.
	set.Get(1).Length = got
	set.Get(1).Latency = set.Get(1).Path.Hops() + got - 1
	rep, err = DetermineFeasibility(set)
	if err != nil || !rep.Feasible {
		t.Fatalf("reported maximum %d not feasible", got)
	}
	set.Get(1).Length = got + 1
	set.Get(1).Latency = set.Get(1).Path.Hops() + got
	rep, err = DetermineFeasibility(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatalf("maximum %d not tight: %d still feasible", got, got+1)
	}
}

func TestMinFeasiblePeriod(t *testing.T) {
	set := paperExample(t)
	got, err := MinFeasiblePeriod(set, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > 40 {
		t.Fatalf("MinFeasiblePeriod = %d, want in (0, 40]", got)
	}
	if set.Get(2).Period != 40 || set.Get(2).Deadline != 40 {
		t.Fatal("stream mutated by probe")
	}
	// The reported minimum is feasible; one less is not (unless at the
	// floor).
	set.Get(2).Period, set.Get(2).Deadline = got, got
	rep, err := DetermineFeasibility(set)
	if err != nil || !rep.Feasible {
		t.Fatalf("reported minimum %d not feasible", got)
	}
	if got > 1 {
		set.Get(2).Period, set.Get(2).Deadline = got-1, got-1
		rep, err = DetermineFeasibility(set)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Feasible {
			t.Fatalf("minimum %d not tight", got)
		}
	}
}

func TestSensitivityErrors(t *testing.T) {
	set := paperExample(t)
	if _, err := MaxFeasibleLength(set, 99, 10); err == nil {
		t.Error("accepted unknown stream")
	}
	if _, err := MaxFeasibleLength(set, 1, 0); err == nil {
		t.Error("accepted zero limit")
	}
	if _, err := MinFeasiblePeriod(set, 99, 1); err == nil {
		t.Error("accepted unknown stream")
	}
	if _, err := MinFeasiblePeriod(set, 1, 0); err == nil {
		t.Error("accepted zero floor")
	}
	if _, err := MinFeasiblePeriod(set, 1, 999); err == nil {
		t.Error("accepted floor above period")
	}
}

// TestMaxFeasibleLengthInfeasibleBase: when the set is already
// infeasible at length 1, the search reports 0.
func TestMaxFeasibleLengthInfeasibleBase(t *testing.T) {
	set := paperExample(t)
	// Make M4's deadline impossible.
	set.Get(4).Deadline = 1
	got, err := MaxFeasibleLength(set, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}
