package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/crosscheck"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The paper-setting reproduction cmd/reproduce computes: Tables 1-5
// (3 trials each), the |M|/4 rule sweeps for 20 and 60 streams, and a
// 9-trial crosscheck, every trial simulated for 30000 flit times.
const (
	reproTrials    = 3
	reproCycles    = 30000
	reproWarmup    = 200
	ruleBaseSeed   = 42
	crossBaseSeed  = 7
	crossTrials    = 3 * reproTrials
	tableTrialStep = 7919   // exp.RunTable's per-trial seed stride
	crossTrialStep = 104729 // crosscheck.Run's per-trial seed stride
	crossUCap      = 1 << 16
)

var ruleStreams = []int{20, 60}

// setupRepeats is how many set-ups the reported set-up time is the
// median of.
const setupRepeats = 25

// reproJob is one of the eight public calls a reproduction makes; run
// returns the text cmd/reproduce writes for it.
type reproJob struct {
	span string
	run  func() (string, error)
}

// reproJobs lists the calls in the order cmd/reproduce makes them and
// writes its outputs in.
func reproJobs() []reproJob {
	var jobs []reproJob
	for n := 1; n <= 5; n++ {
		n := n
		jobs = append(jobs, reproJob{"exp.RunTable", func() (string, error) {
			spec, err := exp.PaperTable(n)
			if err != nil {
				return "", err
			}
			spec.Trials, spec.Cycles = reproTrials, reproCycles
			res, err := exp.RunTable(spec)
			if err != nil {
				return "", err
			}
			return res.Format() + "\n", nil
		}})
	}
	for _, streams := range ruleStreams {
		streams := streams
		jobs = append(jobs, reproJob{"exp.RunRuleSweep", func() (string, error) {
			sweep, err := exp.RunRuleSweep(streams, 0.9, streams/4+3, ruleBaseSeed, reproCycles)
			if err != nil {
				return "", err
			}
			return sweep.Format() + "\n", nil
		}})
	}
	jobs = append(jobs, reproJob{"crosscheck.Run", func() (string, error) {
		cc, err := crosscheck.Run(crosscheck.Config{Trials: crossTrials, Cycles: reproCycles, Seed: crossBaseSeed})
		if err != nil {
			return "", err
		}
		return cc.Format(), nil
	}})
	return jobs
}

// reproFiles are the committed artifacts a reproduction's output is
// compared with, and how many job outputs each concatenates.
var reproFiles = []struct {
	name string
	jobs int
}{{"tables.txt", 5}, {"rule.txt", 2}, {"crosscheck.txt", 1}}

// reproduce makes the reproduction's calls in the given order, with a
// span around each, and returns the outputs in cmd/reproduce's order.
func reproduce(order []int, tr *tracer) ([]string, error) {
	jobs := reproJobs()
	out := make([]string, len(jobs))
	for _, j := range order {
		s := tr.begin(jobs[j].span, 0)
		text, err := jobs[j].run()
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s #%d: %w", jobs[j].span, j, err)
		}
		out[j] = text
	}
	return out, nil
}

// reproTrialCount is the number of independent workloads one
// reproduction generates, analyses and simulates.
func reproTrialCount() int {
	n := 5*reproTrials + crossTrials
	for _, streams := range ruleStreams {
		n += (streams/4 + 3) * reproTrials
	}
	return n
}

// reproIterations is how many reproductions a run times: about one per
// ten measured seconds, fixed by -seconds so every run does the same
// work.
func reproIterations(seconds float64) int { return max(1, int(seconds/10+0.5)) }

func runReproduce(rc runConfig, o *outcome) {
	// The reproduction is the paper's fixed computation; the seed picks
	// the order in which its eight calls run.
	order := rand.New(rand.NewSource(rc.seed)).Perm(len(reproJobs()))

	// Set-up: a reduced table run (one trial, a third of the simulated
	// time), repeated
	// before timing; the first call pays any lazy initialisation.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		spec, err := exp.PaperTable(1)
		if err != nil {
			o.check(false, "setup: %v", err)
			return
		}
		spec.Trials, spec.Cycles = 1, 10000
		t0 := time.Now()
		_, err = exp.RunTable(spec)
		setups = append(setups, time.Since(t0).Seconds())
		o.check(err == nil, "setup: %v", err)
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var iters []float64
	var outs [][]string
	p := startPhase()
	for len(iters) < reproIterations(rc.seconds) {
		t0 := time.Now()
		out, err := reproduce(order, tr)
		iters = append(iters, time.Since(t0).Seconds())
		o.ops(1, 0)
		if err != nil {
			o.check(false, "reproduction %d: %v", len(iters), err)
			return
		}
		outs = append(outs, out)
	}
	wall, util, alloc := p.stop()

	// Every reproduction must equal the committed artifacts byte for byte.
	for i, out := range outs {
		k := 0
		for _, f := range reproFiles {
			want, err := os.ReadFile(filepath.Join(rc.root, "out", f.name))
			got := strings.Join(out[k:k+f.jobs], "")
			k += f.jobs
			o.check(err == nil && string(want) == got, "reproduction %d differs from out/%s (%v)", i+1, f.name, err)
		}
	}

	o.set("latency_p50_ms", median(iters)*1000, len(iters))
	o.set("latency_tail_ms", (&samples{xs: iters}).max()*1000, len(iters))
	o.set("throughput_per_s", float64(reproTrialCount()*len(iters))/wall.Seconds(), len(iters))
	o.set("setup_s", median(setups), len(setups))
	o.set("alloc_kb_per_op", float64(alloc)/1024/float64(len(iters)), len(iters))
	o.set("proc.cpu_util", util, 1)
	o.note("reproduce: %d reproductions of %d trials in %.2fs, call order %v", len(iters), reproTrialCount(), wall.Seconds(), order)

	if rc.trace {
		traceReproduce(rc, o, tr)
	}
}

// traceReproduce reports the exp-layer spans of the timed
// reproductions, then splits one reproduction into its layers by
// running every trial serially through the same public calls
// exp.RunTable and crosscheck.Run make: workload generation (which
// includes period inflation), Cal_U for every stream, and the cycle
// simulation.
func traceReproduce(rc runConfig, o *outcome, tr *tracer) {
	// Per reproduction, the time spent in each exp / crosscheck call
	// type; the metric is the median over reproductions.
	iters := reproIterations(rc.seconds)
	perIter := len(tr.spans) / iters
	for span, metric := range map[string]string{
		"exp.RunTable":     "exp.tables_s",
		"exp.RunRuleSweep": "exp.rule_s",
		"crosscheck.Run":   "crosscheck.run_s",
	} {
		var totals []float64
		for i := 0; i < iters; i++ {
			t := 0.0
			for _, sp := range tr.spans[i*perIter : (i+1)*perIter] {
				if sp.Name == span {
					t += sp.dur().Seconds()
				}
			}
			totals = append(totals, t)
		}
		o.set(metric, median(totals), iters)
	}

	split := newTracer()
	trials := 0
	run := func(cfg workload.Config, ucap int, scfg sim.Config) error {
		trials++
		root := split.begin("trial", 0)
		defer split.end(root)
		s := split.begin("workload.Generate", root)
		set, analyzer, err := workload.Generate(cfg)
		split.end(s)
		if err != nil {
			return err
		}
		s = split.begin("core.CalUSearchCap", root)
		calc := analyzer.NewCalc()
		for _, st := range set.Streams {
			if _, err := calc.CalUSearchCap(st.ID, ucap); err != nil {
				return err
			}
		}
		split.end(s)
		s = split.begin("sim.Run", root)
		sm, err := sim.New(set, scfg)
		if err == nil {
			sm.Run()
		}
		split.end(s)
		return err
	}
	scfg := sim.Config{Cycles: reproCycles, Warmup: reproWarmup, Arbiter: sim.Preemptive}
	var err error
	for n := 1; n <= 5 && err == nil; n++ {
		var spec exp.TableSpec
		if spec, err = exp.PaperTable(n); err != nil {
			break
		}
		for t := 0; t < reproTrials && err == nil; t++ {
			err = run(workload.PaperDefaults(spec.Streams, spec.PLevels, spec.Seed+int64(t)*tableTrialStep), 1<<16, scfg)
		}
	}
	for _, streams := range ruleStreams {
		for lv := 1; lv <= streams/4+3 && err == nil; lv++ {
			for t := 0; t < reproTrials && err == nil; t++ {
				err = run(workload.PaperDefaults(streams, lv, ruleBaseSeed+int64(t)*tableTrialStep), 1<<16, scfg)
			}
		}
	}
	for t := 0; t < crossTrials && err == nil; t++ {
		cfg := workload.PaperDefaults(20, 4, crossBaseSeed+int64(t)*crossTrialStep)
		cfg.UCap = crossUCap
		err = run(cfg, crossUCap, sim.Config{Cycles: reproCycles, Warmup: reproWarmup})
	}
	o.check(err == nil && trials == reproTrialCount(), "trace: serial split ran %d of %d trials: %v", trials, reproTrialCount(), err)

	by := split.selfByName(time.Second)
	simS := orEmpty(by["sim.Run"]).sum()
	o.set("workload.generate_s", orEmpty(by["workload.Generate"]).sum(), trials)
	o.set("core.calu_s", orEmpty(by["core.CalUSearchCap"]).sum(), trials)
	o.set("sim.run_s", simS, trials)
	o.set("sim.cycles_per_s", float64(trials*reproCycles)/simS, trials)
	o.note("reproduce trace: trial glue outside the three layers %.3fs", orEmpty(by["trial"]).sum())
	if err := split.write(filepath.Join(rc.root, ".bench_build", "trace"), fmt.Sprintf("reproduce-seed%d.json", rc.seed)); err != nil {
		o.check(false, "trace: write spans: %v", err)
	}
}
