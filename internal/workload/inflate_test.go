package workload

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// inflateFull is the period-inflation loop as it stood before the
// incremental rule, kept as the oracle for InflatePeriods: every pass
// recomputes every stream's bound and rebuilds the analyzer. It
// returns the final analyzer, the number of passes run, and whether
// the last pass still changed a period.
func inflateFull(set *stream.Set, a *core.Analyzer, ucap int) (*core.Analyzer, int, bool, error) {
	passes, changed := 0, false
	for pass := 0; pass < 8; pass++ {
		passes++
		changed = false
		calc := a.NewCalc()
		for _, s := range set.Streams {
			u, err := calc.CalUSearchCap(s.ID, ucap)
			if err != nil {
				return nil, 0, false, err
			}
			if u > s.Period {
				s.Period = u
				s.Deadline = u
				changed = true
			} else if u < 0 {
				p := s.Period
				if p < 1 {
					p = 1
				}
				if p > core.MaxSearchHorizon/4 {
					p = core.MaxSearchHorizon / 4
				}
				s.Period = p * 4
				s.Deadline = s.Period
				changed = true
			}
		}
		if !changed {
			break
		}
		var err error
		if a, err = core.NewAnalyzer(set); err != nil {
			return nil, 0, false, err
		}
	}
	return a, passes, changed, nil
}

// freshBounds computes every stream's bound from scratch on the final
// set — what the trial step computed before it took InflatePeriods'
// bounds.
func freshBounds(t *testing.T, set *stream.Set, ucap int) []int {
	t.Helper()
	a, err := core.NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	us := make([]int, set.Len())
	for _, s := range set.Streams {
		if us[s.ID], err = a.CalUSearchCap(s.ID, ucap); err != nil {
			t.Fatal(err)
		}
	}
	return us
}

// periods lists every stream's period and deadline.
func periods(set *stream.Set) [][2]int {
	out := make([][2]int, set.Len())
	for i, s := range set.Streams {
		out[i] = [2]int{s.Period, s.Deadline}
	}
	return out
}

// TestInflatePeriodsMatchesFullRecompute pins the incremental
// InflatePeriods to the full-recompute oracle: the same final periods
// and deadlines, and bounds equal to a fresh search on the final set.
// The cases are the trial seeds of Tables 1-5, the crosscheck campaign
// of the reproduction at its search cap, and the same sets at a small
// cap. Table 5's first trial (seed 1005) stops at the eight-pass cap
// with periods still changing (see TestInflatePeriodsPassCap), so the
// short run keeps it.
func TestInflatePeriodsMatchesFullRecompute(t *testing.T) {
	type tc struct {
		streams, levels int
		seed            int64
		ucap            int
	}
	var cases []tc
	tables := []struct{ streams, levels int }{{20, 1}, {60, 1}, {20, 4}, {20, 5}, {60, 15}}
	for n, tb := range tables {
		for trial := int64(0); trial < 3; trial++ {
			cases = append(cases, tc{tb.streams, tb.levels, int64(1000+n+1) + trial*7919, 1 << 16})
		}
	}
	for trial := int64(0); trial < 9; trial++ {
		cases = append(cases, tc{20, 4, 7 + trial*104729, 1 << 16}, tc{20, 4, 7 + trial*104729, 1 << 10})
	}
	if testing.Short() {
		cases = cases[12:13]
	}
	for _, c := range cases {
		cfg := PaperDefaults(c.streams, c.levels, c.seed)
		cfg.InflatePeriods = false
		want, wa, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := inflateFull(want, wa, c.ucap); err != nil {
			t.Fatal(err)
		}
		got, a, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		us, err := InflatePeriods(a, c.ucap)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := periods(got), periods(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%+v: periods/deadlines\n got %v\nwant %v", c, g, w)
		}
		if w := freshBounds(t, got, c.ucap); !reflect.DeepEqual(us, w) {
			t.Fatalf("%+v: bounds\n got %v\nwant %v", c, us, w)
		}
	}
}

// TestInflatePeriodsPassCap pins that Table 5's first trial really
// exercises the eight-pass cap: the full-recompute loop runs all eight
// passes and the last one still changes a period, so the bounds
// InflatePeriods returns must be recomputed after its last pass.
func TestInflatePeriodsPassCap(t *testing.T) {
	cfg := PaperDefaults(60, 15, 1005)
	cfg.InflatePeriods = false
	set, a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, passes, changed, err := inflateFull(set, a, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 8 || !changed {
		t.Fatalf("seed 1005 ran %d passes (last changed: %v), want 8 with periods still changing", passes, changed)
	}
}
