package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

func TestGeneratePaperDefaults(t *testing.T) {
	cfg := PaperDefaults(20, 4, 42)
	set, a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("nil analyzer")
	}
	if set.Len() != 20 {
		t.Fatalf("generated %d streams", set.Len())
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	srcs := map[int]bool{}
	for _, s := range set.Streams {
		if srcs[int(s.Src)] {
			t.Fatalf("duplicate source node %d", s.Src)
		}
		srcs[int(s.Src)] = true
		if s.Priority < 1 || s.Priority > 4 {
			t.Fatalf("priority %d outside [1,4]", s.Priority)
		}
		if s.Length < 1 || s.Length > 40 {
			t.Fatalf("length %d outside [1,40]", s.Length)
		}
		if s.Period < 40 {
			t.Fatalf("period %d below minimum", s.Period)
		}
		if s.Deadline != s.Period {
			t.Fatalf("deadline %d != period %d", s.Deadline, s.Period)
		}
	}
}

// TestInflationEnsuresUWithinPeriod: after generation, every stream's
// delay upper bound fits within its period (the paper's accommodation
// rule).
func TestInflationEnsuresUWithinPeriod(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := PaperDefaults(20, 2, seed)
		set, a, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range set.Streams {
			u, err := a.CalUSearchCap(s.ID, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			if u > s.Period {
				t.Fatalf("seed %d: stream %d has U=%d > T=%d after inflation", seed, s.ID, u, s.Period)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := Generate(PaperDefaults(15, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(PaperDefaults(15, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Streams {
		x, y := a.Streams[i], b.Streams[i]
		if x.Src != y.Src || x.Dst != y.Dst || x.Priority != y.Priority ||
			x.Period != y.Period || x.Length != y.Length {
			t.Fatalf("stream %d differs across identical seeds", i)
		}
	}
	c, _, err := Generate(PaperDefaults(15, 3, 8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Streams {
		if a.Streams[i].Src != c.Streams[i].Src || a.Streams[i].Dst != c.Streams[i].Dst {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical topologial layout")
	}
}

func TestGenerateWithoutInflation(t *testing.T) {
	cfg := PaperDefaults(20, 1, 3)
	cfg.InflatePeriods = false
	set, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range set.Streams {
		if s.Period > 90 {
			t.Fatalf("period %d inflated despite InflatePeriods=false", s.Period)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{MeshW: 1, MeshH: 0, Streams: 1, PLevels: 1, CMin: 1, CMax: 2, TMin: 10, TMax: 20},
		{MeshW: 4, MeshH: 4, Streams: 17, PLevels: 1, CMin: 1, CMax: 2, TMin: 10, TMax: 20},
		{MeshW: 4, MeshH: 4, Streams: 0, PLevels: 1, CMin: 1, CMax: 2, TMin: 10, TMax: 20},
		{MeshW: 4, MeshH: 4, Streams: 4, PLevels: 0, CMin: 1, CMax: 2, TMin: 10, TMax: 20},
		{MeshW: 4, MeshH: 4, Streams: 4, PLevels: 1, CMin: 0, CMax: 2, TMin: 10, TMax: 20},
		{MeshW: 4, MeshH: 4, Streams: 4, PLevels: 1, CMin: 3, CMax: 2, TMin: 10, TMax: 20},
		{MeshW: 4, MeshH: 4, Streams: 4, PLevels: 1, CMin: 1, CMax: 2, TMin: 20, TMax: 10},
	}
	for i, cfg := range bad {
		if _, _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestHighestPriorityUnblockedAcrossSeeds: in generated workloads a
// stream that is the unique occupant of the top level has U == L.
func TestHighestPriorityUnblockedAcrossSeeds(t *testing.T) {
	set, a, err := Generate(PaperDefaults(10, 10, 99))
	if err != nil {
		t.Fatal(err)
	}
	// Find the streams at the maximum priority present.
	max := 0
	for _, s := range set.Streams {
		if s.Priority > max {
			max = s.Priority
		}
	}
	var tops []*stream.Stream
	for _, s := range set.Streams {
		if s.Priority == max {
			tops = append(tops, s)
		}
	}
	if len(tops) != 1 {
		t.Skip("top level not unique for this seed")
	}
	u, err := a.CalUSearchCap(tops[0].ID, core.MaxSearchHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if u != tops[0].Latency {
		t.Fatalf("unique top-priority stream U=%d, want L=%d", u, tops[0].Latency)
	}
}

// TestAnalyzerMatchesFreshOne: the analyzer returned by Generate
// reflects the final (inflated) stream set.
func TestAnalyzerMatchesFreshOne(t *testing.T) {
	set, a, err := Generate(PaperDefaults(20, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewAnalyzer(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range set.Streams {
		u1, err := a.CalUSearchCap(s.ID, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		u2, err := fresh.CalUSearchCap(s.ID, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if u1 != u2 {
			t.Fatalf("stream %d: returned analyzer U=%d, fresh U=%d", s.ID, u1, u2)
		}
	}
}
