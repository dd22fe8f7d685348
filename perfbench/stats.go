package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is one or two outliers,
// not a percentile.
const minBeyond = 10

// samples holds raw observations of one quantity. Percentiles are exact
// nearest-rank order statistics of these values, never bucket edges.
type samples struct {
	xs     []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *samples) n() int { return len(s.xs) }

// rank is the 1-based nearest-rank position of the permille-th
// percentile among n samples: the smallest r with r/n >= permille/1000.
// Integer arithmetic keeps p99 of 1000 samples at rank 990, where
// floating-point 0.99*1000 would round up to 991.
func rank(n, permille int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the exact nearest-rank permille-th percentile. It
// fails when fewer than minBeyond samples lie beyond that rank.
func (s *samples) percentile(permille int) (float64, error) {
	n := len(s.xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	r := rank(n, permille)
	if beyond := n - r; beyond < minBeyond {
		return 0, fmt.Errorf("p%s of %d samples has %d beyond it, want >= %d",
			permilleName(permille), n, beyond, minBeyond)
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return s.xs[r-1], nil
}

func (s *samples) max() float64 {
	m := 0.0
	for i, x := range s.xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func (s *samples) sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

func (s *samples) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.xs))
}

// median of a handful of repeated measurements (set-up times, whole
// reproductions), where the nearest-rank tail rule does not apply: the
// lower middle value for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[(len(c)-1)/2]
}

func permilleName(permille int) string {
	if permille%10 == 0 {
		return fmt.Sprint(permille / 10)
	}
	return fmt.Sprintf("%d.%d", permille/10, permille%10)
}
