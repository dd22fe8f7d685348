package grid

import (
	"fmt"
	"testing"
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
