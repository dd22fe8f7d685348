package main

import (
	"math"
	"testing"
)

func seq(n int) *samples {
	s := &samples{}
	for i := n; i >= 1; i-- { // reverse order: percentile must sort
		s.add(float64(i))
	}
	return s
}

func TestRankIsExactNearestRank(t *testing.T) {
	for _, c := range []struct{ n, permille, want int }{
		{1000, 990, 990}, // 0.99*1000 in floating point would give 991
		{1000, 500, 500},
		{999, 500, 500},
		{20, 500, 10},
		{200, 950, 190},
		{1, 500, 1},
		{3, 0, 1},
	} {
		if got := rank(c.n, c.permille); got != c.want {
			t.Errorf("rank(%d, %d) = %d, want %d", c.n, c.permille, got, c.want)
		}
	}
}

func TestPercentileValues(t *testing.T) {
	s := seq(1000)
	for _, c := range []struct {
		permille int
		want     float64
	}{{500, 500}, {990, 990}, {950, 950}, {900, 900}} {
		got, err := s.percentile(c.permille)
		if err != nil || got != c.want {
			t.Errorf("p%d of 1..1000 = %v, %v; want %v", c.permille/10, got, err, c.want)
		}
	}
	if got := s.max(); got != 1000 {
		t.Errorf("max = %v", got)
	}
	if got := s.mean(); math.Abs(got-500.5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := seq(1000).percentile(990); err != nil {
		t.Errorf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if _, err := seq(999).percentile(990); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it; want an error")
	}
	if _, err := seq(20).percentile(500); err != nil {
		t.Errorf("median of 20 samples has 10 beyond it: %v", err)
	}
	if _, err := seq(19).percentile(500); err == nil {
		t.Error("median of 19 samples has 9 beyond it; want an error")
	}
	if _, err := (&samples{}).percentile(500); err == nil {
		t.Error("percentile of no samples; want an error")
	}
}

func TestMedianOfRepeats(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median(4,1,3,2) = %v, want the lower middle 2", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}
