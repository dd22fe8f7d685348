package workload

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGenerateGolden pins the paper's draw order: the set generated for
// a fixed seed, periods inflated, must match the committed encoding
// stream for stream, through Generate and through the Uniform pattern
// alike. Every table, sweep and crosscheck trial draws its workload
// this way, so a change here shifts out/.
func TestGenerateGolden(t *testing.T) {
	cfg := PaperDefaults(20, 4, 1)
	path := filepath.Join("testdata", "generate_seed1.golden.json")
	gens := map[string]func() (*stream.Set, *core.Analyzer, error){
		"Generate":        func() (*stream.Set, *core.Analyzer, error) { return Generate(cfg) },
		"GeneratePattern": func() (*stream.Set, *core.Analyzer, error) { return GeneratePattern(cfg, Uniform) },
	}
	for name, gen := range gens {
		set, _, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := stream.EncodeSet(&got, set); err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Fatalf("%s: generated set differs from %s:\n%s", name, path, got.String())
		}
	}
}

// GenerateOn over the same mesh must reproduce Generate draw for draw:
// the explorer holds the demand sequence fixed while swapping networks,
// and that only works if the mesh case is the identity. Generate is
// GenerateOn on a mesh built from cfg; this pins that a caller-built
// mesh of the same size gives the same set.
func TestGenerateOnMeshMatchesGenerate(t *testing.T) {
	cfg := PaperDefaults(20, 4, 7)
	cfg.InflatePeriods = true
	want, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := GenerateOn(topology.NewMesh2D(cfg.MeshW, cfg.MeshH), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("GenerateOn produced %d streams, Generate %d", got.Len(), want.Len())
	}
	for i := range want.Streams {
		w, g := want.Streams[i], got.Streams[i]
		if w.Src != g.Src || w.Dst != g.Dst || w.Priority != g.Priority ||
			w.Period != g.Period || w.Length != g.Length || w.Deadline != g.Deadline {
			t.Fatalf("stream %d differs: Generate %+v, GenerateOn %+v", i, *w, *g)
		}
	}
}

func TestGenerateOnNonMeshTopologies(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewRing(12), topology.NewHypercube(4), topology.NewTorus2D(4, 4),
	} {
		cfg := PaperDefaults(8, 4, 3)
		cfg.InflatePeriods = false
		set, a, err := GenerateOn(topo, cfg)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if a == nil {
			t.Fatalf("%s: nil analyzer", topo.Name())
		}
		if set.Len() != 8 {
			t.Fatalf("%s: %d streams, want 8", topo.Name(), set.Len())
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		seen := make(map[topology.NodeID]bool)
		for _, s := range set.Streams {
			if seen[s.Src] {
				t.Fatalf("%s: duplicate source %d", topo.Name(), s.Src)
			}
			seen[s.Src] = true
		}
	}
}

func TestGenerateOnDeterministic(t *testing.T) {
	cfg := PaperDefaults(10, 4, 99)
	cfg.InflatePeriods = true
	a, _, err := GenerateOn(topology.NewRing(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := GenerateOn(topology.NewRing(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Streams {
		x, y := a.Streams[i], b.Streams[i]
		if x.Src != y.Src || x.Dst != y.Dst || x.Priority != y.Priority ||
			x.Period != y.Period || x.Length != y.Length || x.Deadline != y.Deadline {
			t.Fatalf("stream %d nondeterministic: %+v vs %+v", i, *x, *y)
		}
	}
}

func TestGenerateOnRejectsBadConfigs(t *testing.T) {
	cfg := PaperDefaults(20, 4, 1)
	if _, _, err := GenerateOn(topology.NewRing(12), cfg); err == nil {
		t.Fatal("accepted 20 streams on 12 nodes")
	}
	cfg = PaperDefaults(4, 0, 1)
	if _, _, err := GenerateOn(topology.NewRing(12), cfg); err == nil {
		t.Fatal("accepted 0 priority levels")
	}
}
