// Package grid provides the shared sweep-grid machinery behind the
// parameter studies: deterministic enumeration of the cartesian
// product of named axes, per-point seed derivation, and the axis-value
// validation the sweeps would otherwise open-code.
//
// Both the ratio-table sweeps (package exp) and the design-space
// explorer (package explore) iterate the same way — a fixed list of
// axis values, visited in a fixed lexicographic order, with any
// randomness derived from a per-point seed rather than from visit
// order — so the two cannot drift: a grid's point order, and therefore
// every merged result, is a pure function of the axes. Map is the one
// ordered worker pool every parallel study runs its points through.
package grid

import (
	"fmt"
	"runtime"
	"sync"
)

// Axis is one dimension of a sweep grid: a name (for diagnostics) and
// the number of values on the axis. The values themselves stay typed
// in the caller; the grid deals only in indexes.
type Axis struct {
	Name string
	Len  int
}

// Grid enumerates the cartesian product of its axes in lexicographic
// order with the LAST axis varying fastest, matching the nested-loop
// order `for a { for b { ... } }` the sweeps historically used.
type Grid struct {
	axes    []Axis
	strides []int
	size    int
}

// New builds a grid over the given axes. Every axis must have a
// positive length and a non-empty name; axis names must be unique.
func New(axes ...Axis) (*Grid, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("grid: no axes")
	}
	seen := make(map[string]bool, len(axes))
	size := 1
	for _, a := range axes {
		if a.Name == "" {
			return nil, fmt.Errorf("grid: axis with empty name")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("grid: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		if a.Len < 1 {
			return nil, fmt.Errorf("grid: axis %q has no values", a.Name)
		}
		if size > 1<<30/a.Len {
			return nil, fmt.Errorf("grid: more than %d points", 1<<30)
		}
		size *= a.Len
	}
	g := &Grid{axes: append([]Axis(nil), axes...), size: size}
	g.strides = make([]int, len(axes))
	stride := 1
	for i := len(axes) - 1; i >= 0; i-- {
		g.strides[i] = stride
		stride *= axes[i].Len
	}
	return g, nil
}

// Size returns the number of points in the grid.
func (g *Grid) Size() int { return g.size }

// Axes returns the grid's axes in declaration order.
func (g *Grid) Axes() []Axis { return append([]Axis(nil), g.axes...) }

// Coords expands point index i into one value index per axis, in
// declaration order. It panics when i is out of range.
func (g *Grid) Coords(i int) []int {
	if i < 0 || i >= g.size {
		panic(fmt.Sprintf("grid: point %d out of range [0,%d)", i, g.size))
	}
	coords := make([]int, len(g.axes))
	for a := range g.axes {
		coords[a] = i / g.strides[a] % g.axes[a].Len
	}
	return coords
}

// Index is the inverse of Coords. It panics on a coordinate outside
// its axis.
func (g *Grid) Index(coords []int) int {
	if len(coords) != len(g.axes) {
		panic(fmt.Sprintf("grid: %d coordinates for %d axes", len(coords), len(g.axes)))
	}
	i := 0
	for a, c := range coords {
		if c < 0 || c >= g.axes[a].Len {
			panic(fmt.Sprintf("grid: coordinate %d out of range on axis %q [0,%d)", c, g.axes[a].Name, g.axes[a].Len))
		}
		i += c * g.strides[a]
	}
	return i
}

// ForEach visits every point in index order, stopping at the first
// error. The coords slice is reused between calls; callers that retain
// it must copy.
func (g *Grid) ForEach(fn func(i int, coords []int) error) error {
	coords := make([]int, len(g.axes))
	for i := 0; i < g.size; i++ {
		for a := range g.axes {
			coords[a] = i / g.strides[a] % g.axes[a].Len
		}
		if err := fn(i, coords); err != nil {
			return err
		}
	}
	return nil
}

// PointSeed derives a deterministic per-point seed from a base seed
// and a point index. The mix is a fixed splitmix64 step, so the seed
// of point i depends only on (base, i) — never on visit order or
// worker count — and nearby indexes get well-separated seeds.
func PointSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// PositiveInts validates that every value of the named axis is
// positive, returning the error the sweeps historically formatted by
// hand.
func PositiveInts(name string, vals []int) error {
	if len(vals) == 0 {
		return fmt.Errorf("grid: no %s values", name)
	}
	for _, v := range vals {
		if v < 1 {
			return fmt.Errorf("grid: %s %d must be positive", name, v)
		}
	}
	return nil
}

// PositiveFloats is PositiveInts for float-valued axes.
func PositiveFloats(name string, vals []float64) error {
	if len(vals) == 0 {
		return fmt.Errorf("grid: no %s values", name)
	}
	for _, v := range vals {
		if v <= 0 {
			return fmt.Errorf("grid: %s %f must be positive", name, v)
		}
	}
	return nil
}

// NonNegativeInts validates axis values that may legitimately be zero
// (router pipeline depths, jitter bounds).
func NonNegativeInts(name string, vals []int) error {
	if len(vals) == 0 {
		return fmt.Errorf("grid: no %s values", name)
	}
	for _, v := range vals {
		if v < 0 {
			return fmt.Errorf("grid: negative %s %d", name, v)
		}
	}
	return nil
}

// Map calls f(i) for every i in [0, n) on a pool of workers and returns
// the results in index order. workers <= 0 means GOMAXPROCS. When calls
// fail, the error of the smallest failing index is returned, so the
// outcome is identical for every worker count and schedule. Workers
// only send on a channel; the merge loop is the single owner of the
// result slice.
func Map[T any](n, workers int, f func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("grid: negative point count %d", n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	type result struct {
		i   int
		v   T
		err error
	}
	// Both channels hold every send, so neither the feeding loop nor a
	// worker ever blocks.
	jobs := make(chan int, n)
	out := make(chan result, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				v, err := f(i)
				out <- result{i, v, err}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(out)
	vals := make([]T, n)
	failed := -1
	var firstErr error
	for r := range out {
		if r.err != nil {
			if failed < 0 || r.i < failed {
				failed, firstErr = r.i, r.err
			}
			continue
		}
		vals[r.i] = r.v
	}
	if failed >= 0 {
		return nil, firstErr
	}
	return vals, nil
}
