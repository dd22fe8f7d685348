package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

const cycleGoldenPath = "testdata/cycle_engine.golden"

// hashResult returns the SHA-256 of a canonical encoding of r: the
// run-level scalars, every per-stream record (latency histogram
// included) in stream order, and the per-channel tallies in (From, To)
// order.
func hashResult(r *sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d warmup=%d arbiter=%d unfinished=%d firstdeadlock=%d\n",
		r.Cycles, r.Warmup, int(r.Arbiter), r.Unfinished, r.FirstDeadlockCycle)
	for _, st := range r.PerStream {
		fmt.Fprintf(h, "%+v\n", st)
	}
	chans := make([]topology.Channel, 0, len(r.PerChannel))
	for ch := range r.PerChannel {
		chans = append(chans, ch)
	}
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].From != chans[j].From {
			return chans[i].From < chans[j].From
		}
		return chans[i].To < chans[j].To
	})
	for _, ch := range chans {
		cs := r.PerChannel[ch]
		fmt.Fprintf(h, "%d>%d busy=%d flits=%d\n", ch.From, ch.To, cs.BusyCycles, cs.Flits)
	}
	return sum(h)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// goldenRuns enumerates the pinned configurations: the differential
// battery, the five dense §5 workloads at the paper's horizon, and one
// router-pipeline set.
func goldenRuns(t *testing.T) []engineRun {
	runs := append(batteryRuns(t), paperSeedRuns(t)...)
	return append(runs, engineRun{
		label: "routerlatency/rl2/d1/droplate",
		set:   routerLatencySet(t, 2),
		cfg:   sim.Config{Cycles: 1500, Warmup: 100, BufferDepth: 1, DropLate: true},
	})
}

// TestCycleEngineGolden pins the cycle engine's results to recorded
// SHA-256 digests, one per configuration, plus one digest of a traced
// run's full event stream. The differential battery compares the two
// engines, which share the cycle kernel in every contended window, so
// a kernel change that alters behaviour would pass it; this test does
// not. Regenerate with -update only for an intended semantic change.
func TestCycleEngineGolden(t *testing.T) {
	var got []string
	for _, run := range goldenRuns(t) {
		s, err := sim.New(run.set, run.cfg)
		if err != nil {
			t.Fatalf("%s: %v", run.label, err)
		}
		got = append(got, run.label+" "+hashResult(s.Run()))
	}

	// Tracing is served by the global kernel alone: pin the event
	// stream of one contended run.
	topo, err := topology.Parse("mesh2d-6x6")
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := workload.GenerateOn(topo, workload.PaperDefaults(14, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	s, err := sim.New(set, sim.Config{Cycles: 1200, Warmup: 100, DropLate: true, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	h := sha256.New()
	for _, e := range rec.Events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	got = append(got, fmt.Sprintf("trace/mesh2d-6x6/seed1/droplate/%devents %s", len(rec.Events), sum(h)))

	if *update {
		if err := os.WriteFile(cycleGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(cycleGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 5 {
				t.Errorf("digest differs:\n got  %s\n want %s", got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cycle-engine digests differ from %s", bad, len(got), cycleGoldenPath)
	}
}
