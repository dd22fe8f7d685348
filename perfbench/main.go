// Command perfbench is the repository's end-to-end benchmark. It drives
// the three paths a user of this reproduction runs — the admission
// daemon admitting and withdrawing streams, the regeneration of the
// paper's §5 tables, and Monte-Carlo studies — through their public
// functions, checks every output, and prints the end-to-end metrics of
// BENCHMARK.json (or, with -trace 1, the per-layer ones) as the last
// line of standard output:
//
//	perfbench -workload admission|reproduce|mc-study -seed N -seconds S -trace 0|1
//
// run.sh builds it from the checkout and runs it from the checkout
// root. The process exits non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user sees. Each workload gives them its
// own meaning, recorded in BENCHMARK.json.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it bypasses.
var perLayer = []metricDef{
	{"server.http_self_us_p50", "us"},
	{"server.report_ms_p95", "ms"},
	{"admission.open_p99_ms", "ms"},
	{"admission.wait_ms_p99", "ms"},
	{"admit.admit_us_p50", "us"},
	{"admit.admit_us_p99", "us"},
	{"admit.withdraw_us_p50", "us"},
	{"admit.withdraw_us_p99", "us"},
	{"core.extend_us_p50", "us"},
	{"core.rebuild_us_p50", "us"},
	{"core.dependents_us_p50", "us"},
	{"core.calu_batch_us_p50", "us"},
	{"core.calu_batch_us_p99", "us"},
	{"core.dirty_per_mutation", "count"},
	{"server.snapshot_us_p50", "us"},
	{"server.snapshot_disk_us_p50", "us"},
	{"server.snapshot_bytes", "bytes"},
	{"server.restore_ms", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"workload.generate_s", "s"},
	{"core.calu_s", "s"},
	{"sim.run_s", "s"},
	{"sim.cycles_per_s", "1/s"},
	{"exp.tables_s", "s"},
	{"exp.rule_s", "s"},
	{"crosscheck.run_s", "s"},
	{"proc.cpu_util", "share"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // checkout root: the benchmark reads out/ from here
	work    string // scratch directory for this run, removed afterwards
}

// outcome accumulates a workload's attempts, failed checks and metrics.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	counts            map[string]int // sample count behind each value
	notes             []string       // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, counts: map[string]int{}}
}

// check records one output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// ops records n operations of which failed did not succeed.
func (o *outcome) ops(n, failed int) {
	o.attempted += n
	o.failed += failed
}

func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.counts[name] = n
}

// pct sets name to the permille-th percentile of s, or records a failed
// check when s is too small to support that percentile.
func (o *outcome) pct(name string, s *samples, permille int) {
	v, err := s.percentile(permille)
	o.check(err == nil, "%s: %v", name, err)
	if err == nil {
		o.set(name, v, s.n())
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(runConfig, *outcome){
	"admission": runAdmission,
	"reproduce": runReproduce,
	"mc-study":  runMCStudy,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "admission, reproduce or mc-study")
	seed := fs.Int64("seed", 0, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	traced := fs.Int("trace", 0, "1: print the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload admission|reproduce|mc-study, -seconds > 0, -trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	// The reproduce check compares against the committed artifacts, so
	// the benchmark must run from the root of a full checkout.
	if _, err := os.Stat(filepath.Join(root, "out", "tables.txt")); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)

	rc := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, root: root, work: work}
	o := newOutcome()
	fn(rc, o)
	o.set("peak_rss_mb", peakRSSMiB(), 1)

	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !rc.trace {
			o.check(false, "%s: not measured", d.name)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}

	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(o.values))
	for n := range o.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g  n=%d\n", n, o.values[n], o.counts[n])
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// phase measures the process-wide resources of a timed phase.
type phase struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startPhase() phase {
	return phase{wall: time.Now(), cpu: cpuTime(), alloc: totalAlloc()}
}

// stop returns the phase's wall time, CPU utilisation (CPU time over
// wall time times GOMAXPROCS) and bytes allocated.
func (p phase) stop() (wall time.Duration, util float64, alloc uint64) {
	wall = time.Since(p.wall)
	util = float64(cpuTime()-p.cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	return wall, util, totalAlloc() - p.alloc
}
