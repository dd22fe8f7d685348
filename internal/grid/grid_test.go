package grid

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestEnumerationOrderMatchesNestedLoops(t *testing.T) {
	g, err := New(Axis{"a", 2}, Axis{"b", 3}, Axis{"c", 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 12 {
		t.Fatalf("Size() = %d, want 12", g.Size())
	}
	var want [][3]int
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 2; c++ {
				want = append(want, [3]int{a, b, c})
			}
		}
	}
	i := 0
	err = g.ForEach(func(idx int, coords []int) error {
		if idx != i {
			t.Fatalf("visit %d reported index %d", i, idx)
		}
		if [3]int{coords[0], coords[1], coords[2]} != want[i] {
			t.Fatalf("point %d = %v, want %v", i, coords, want[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 12 {
		t.Fatalf("visited %d points", i)
	}
}

func TestCoordsIndexRoundTrip(t *testing.T) {
	g, err := New(Axis{"x", 4}, Axis{"y", 5}, Axis{"z", 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Size(); i++ {
		if got := g.Index(g.Coords(i)); got != i {
			t.Fatalf("Index(Coords(%d)) = %d", i, got)
		}
	}
}

func TestNewRejectsBadAxes(t *testing.T) {
	cases := [][]Axis{
		nil,
		{{"", 2}},
		{{"a", 0}},
		{{"a", 2}, {"a", 3}},
	}
	for i, axes := range cases {
		if _, err := New(axes...); err == nil {
			t.Fatalf("case %d: New(%v) accepted", i, axes)
		}
	}
}

func TestCoordsPanicsOutOfRange(t *testing.T) {
	g, err := New(Axis{"a", 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Coords(2) did not panic")
		}
	}()
	g.Coords(2)
}

func TestPointSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := PointSeed(42, i)
		if s != PointSeed(42, i) {
			t.Fatalf("PointSeed(42, %d) not deterministic", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("PointSeed collision between points %d and %d", i, j)
		}
		seen[s] = i
	}
	if PointSeed(1, 0) == PointSeed(2, 0) {
		t.Fatal("different bases produced the same seed")
	}
}

func TestValidators(t *testing.T) {
	if err := PositiveInts("vc count", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := PositiveInts("vc count", []int{1, 0}); err == nil {
		t.Fatal("PositiveInts accepted 0")
	}
	if err := PositiveInts("vc count", nil); err == nil {
		t.Fatal("PositiveInts accepted empty")
	}
	if err := PositiveFloats("scale", []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if err := PositiveFloats("scale", []float64{-1}); err == nil {
		t.Fatal("PositiveFloats accepted -1")
	}
	if err := NonNegativeInts("depth", []int{0, 4}); err != nil {
		t.Fatal(err)
	}
	if err := NonNegativeInts("depth", []int{-1}); err == nil {
		t.Fatal("NonNegativeInts accepted -1")
	}
}

// TestMapOrderAndFirstError pins the pool's contract at every width,
// including more workers than points: results come back in index order,
// and when several calls fail the smallest failing index's error wins
// however the calls were scheduled.
func TestMapOrderAndFirstError(t *testing.T) {
	const n = 9
	for _, workers := range []int{1, 2, 4, n + 3} {
		got, err := Map(n, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
		for rep := 0; rep < 20; rep++ {
			_, err := Map(n, workers, func(i int) (int, error) {
				if i == 3 || i == 4 || i == 8 {
					return 0, fmt.Errorf("fail %d", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "fail 3" {
				t.Fatalf("workers=%d: error %v, want fail 3", workers, err)
			}
		}
	}
	got, err := Map(0, 4, func(i int) (int, error) {
		t.Fatalf("f called with %d for n = 0", i)
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("n = 0: got %v, %v", got, err)
	}
	if _, err := Map(-1, 4, func(int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("accepted n = -1")
	}
}

// TestMapWorkersSmallestFailingIndex: a failure yields (nil, error),
// never a partial result, and the error is the smallest failing
// index's at every width, whatever the schedule.
func TestMapWorkersSmallestFailingIndex(t *testing.T) {
	const n = 40
	for _, workers := range []int{0, 1, 2, 3, 16} {
		for rep := 0; rep < 20; rep++ {
			got, err := MapWorkers(n, workers, func() int { return 0 }, func(_ int, i int) (int, error) {
				if i == 7 || i == 9 || i == 30 {
					return 0, fmt.Errorf("fail %d", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "fail 7" || got != nil {
				t.Fatalf("workers=%d: got (%v, %v), want (nil, fail 7)", workers, got, err)
			}
		}
	}
}

// TestMapWorkersAllFailing: every index failing still returns cleanly
// (no worker blocks on a send) and reports index 0.
func TestMapWorkersAllFailing(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 32} {
		_, err := MapWorkers(12, workers, func() int { return 0 }, func(_ int, i int) (int, error) {
			return 0, fmt.Errorf("fail %d", i)
		})
		if err == nil || err.Error() != "fail 0" {
			t.Fatalf("workers=%d: error %v, want fail 0", workers, err)
		}
	}
}

// TestMapWorkersSkipsAfterFailure: once an index has failed the pool
// stops computing results it would discard. With one worker the calls
// run in index order on the calling goroutine, so a failure at index 1
// means exactly two calls.
func TestMapWorkersSkipsAfterFailure(t *testing.T) {
	calls := 0
	_, err := MapWorkers(10, 1, func() int { return 0 }, func(_ int, i int) (int, error) {
		calls++
		if i == 1 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if calls != 2 {
		t.Fatalf("f called %d times with 1 worker, want 2 (index 0 and the failure)", calls)
	}
}

// TestMapWorkersSkipsAfterFailureInParallel: with several workers the
// pool also stops computing once an index has failed. Index 0 fails at
// once while every other call takes a while, so a pool that skipped
// nothing would make all n calls.
func TestMapWorkersSkipsAfterFailureInParallel(t *testing.T) {
	const n = 4000
	for _, workers := range []int{2, 4} {
		var calls atomic.Int32
		_, err := MapWorkers(n, workers, func() int { return 0 }, func(_ int, i int) (int, error) {
			calls.Add(1)
			if i == 0 {
				return 0, fmt.Errorf("fail %d", i)
			}
			time.Sleep(50 * time.Microsecond)
			return i, nil
		})
		if err == nil || err.Error() != "fail 0" {
			t.Fatalf("workers=%d: error %v, want fail 0", workers, err)
		}
		if got := calls.Load(); got > n/2 {
			t.Fatalf("workers=%d: %d calls after an immediate failure at index 0", workers, got)
		}
	}
}

// TestMapWorkersNeverSkipsBelowFailure: every index up to the smallest
// failure runs at every width; only indexes above a failure may be
// skipped.
func TestMapWorkersNeverSkipsBelowFailure(t *testing.T) {
	const n, fail = 64, 37
	for _, workers := range []int{2, 3, 8, 16} {
		for rep := 0; rep < 20; rep++ {
			var ran [n]atomic.Bool
			_, err := MapWorkers(n, workers, func() int { return 0 }, func(_ int, i int) (int, error) {
				ran[i].Store(true)
				if i >= fail && i%2 == 1 {
					return 0, fmt.Errorf("fail %d", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != fmt.Sprintf("fail %d", fail) {
				t.Fatalf("workers=%d: error %v, want fail %d", workers, err, fail)
			}
			for i := 0; i <= fail; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d: index %d below or at the smallest failure was skipped", workers, i)
				}
			}
		}
	}
}

// TestMapWorkersPerWorkerState hammers the per-worker values under
// `go test -race`: newWorker runs at most min(workers, n) times, and
// each value is used by one goroutine only — every worker owns a
// scratch slice it writes without locking, and the results (which
// record which worker computed them) come back in index order.
func TestMapWorkersPerWorkerState(t *testing.T) {
	type worker struct {
		id      int
		scratch []int
	}
	for _, n := range []int{0, 1, 5, 200} {
		for _, workers := range []int{0, 1, 2, 7, 33} {
			var made atomic.Int32
			got, err := MapWorkers(n, workers, func() *worker {
				return &worker{id: int(made.Add(1))}
			}, func(w *worker, i int) ([2]int, error) {
				w.scratch = append(w.scratch[:0], i, i*i)
				return [2]int{w.scratch[1], w.id}, nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			limit := workers
			if limit <= 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			limit = min(limit, n)
			if int(made.Load()) > limit {
				t.Fatalf("n=%d workers=%d: newWorker ran %d times, want at most %d", n, workers, made.Load(), limit)
			}
			for i, r := range got {
				if r[0] != i*i || r[1] < 1 || r[1] > int(made.Load()) {
					t.Fatalf("n=%d workers=%d: result %d = %v", n, workers, i, r)
				}
			}
		}
	}
}
