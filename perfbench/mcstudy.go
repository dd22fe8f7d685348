package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/hist"
	"repro/internal/mc"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

const (
	// mcSeedsPerBatch replications per point make one study batch: one
	// mc.Run call, the operation whose latency the workload reports.
	mcSeedsPerBatch = 4
	// mcCheckedBatches are replayed on the cycle engine after timing.
	mcCheckedBatches = 2
)

// mcPoints is the §5 study: the 20-stream, 4-level pool on the 10×10
// mesh under the paper's preemptive scheme and Li & Mutka's, buffer 2.
func mcPoints() []mc.PointConfig {
	var ps []mc.PointConfig
	for _, arb := range []sim.ArbiterKind{sim.Preemptive, sim.Li} {
		ps = append(ps, mc.PointConfig{
			Topology: "mesh2d-10x10", Streams: 20, PLevels: 4,
			Arbiter: arb, Buffer: 2, Cycles: 30000, Warmup: 200,
		})
	}
	return ps
}

func mcBatch(seed int64, batch int) mc.Config {
	return mc.Config{
		Seeds:    mcSeedsPerBatch,
		BaseSeed: seed<<20 + int64(batch),
		Engine:   mc.EngineEvent,
		Workers:  runtime.GOMAXPROCS(0),
		Points:   mcPoints(),
	}
}

func runMCStudy(rc runConfig, o *outcome) {
	// Set-up: one small study, repeated before timing.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		cfg := mcBatch(rc.seed, -1-i)
		cfg.Seeds = 1
		t0 := time.Now()
		_, err := mc.Run(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		o.check(err == nil, "setup: %v", err)
	}

	var lat samples
	var results []*mc.Result
	var walls []time.Duration
	reps := 0
	p := startPhase()
	for time.Since(p.wall).Seconds() < rc.seconds {
		cfg := mcBatch(rc.seed, len(walls))
		t0 := time.Now()
		res, err := mc.Run(cfg)
		dt := time.Since(t0)
		n := len(cfg.Points) * cfg.Seeds
		o.ops(n, 0)
		if err != nil {
			o.check(false, "batch %d: %v", len(walls), err)
			return
		}
		o.check(len(res.Replications) == n, "batch %d: %d replications, want %d", len(walls), len(res.Replications), n)
		reps += n
		lat.addDur(dt, time.Millisecond)
		walls = append(walls, dt)
		if len(results) < mcCheckedBatches {
			results = append(results, res)
		}
	}
	wall, util, alloc := p.stop()

	// Outside the timed window: replay the first batches on both engines.
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	for _, res := range results {
		for _, rep := range res.Replications {
			if err := checkReplication(mcPoints()[rep.Point], rep, tr); err != nil {
				o.check(false, "replication %d/%d: %v", rep.Point, rep.Seed, err)
			} else {
				o.check(true, "")
			}
		}
	}

	o.pct("latency_p50_ms", &lat, 500)
	o.pct("latency_tail_ms", &lat, 900)
	o.set("throughput_per_s", float64(reps)/wall.Seconds(), reps)
	o.set("setup_s", median(setups), len(setups))
	o.set("alloc_kb_per_op", float64(alloc)/1024/float64(reps), reps)
	o.set("proc.cpu_util", util, 1)
	o.note("mc-study: %d batches of %d replications in %.2fs, %d workers", len(walls), 2*mcSeedsPerBatch, wall.Seconds(), runtime.GOMAXPROCS(0))

	if rc.trace {
		by := tr.selfByName(time.Second)
		gen := orEmpty(by["workload.GenerateOn"]).sum()
		ev := orEmpty(by["eventsim.Run"]).sum()
		cyc := orEmpty(by["sim.Run"]).sum()
		n := orEmpty(by["eventsim.Run"]).n()
		var batchWall time.Duration
		for _, w := range walls[:len(results)] {
			batchWall += w
		}
		o.set("workload.generate_s", gen, n)
		o.set("eventsim.run_s", ev, n)
		o.set("eventsim.cycles_per_s", float64(n*30000)/ev, n)
		o.set("sim.run_s", cyc, n)
		o.set("sim.cycles_per_s", float64(n*30000)/cyc, n)
		o.set("eventsim.speedup_vs_cycle", cyc/ev, n)
		o.set("mc.pool_efficiency", (gen+ev)/(batchWall.Seconds()*float64(runtime.GOMAXPROCS(0))), n)
		if err := tr.write(filepath.Join(rc.root, ".bench_build", "trace"), fmt.Sprintf("mc-study-seed%d.json", rc.seed)); err != nil {
			o.check(false, "trace: write spans: %v", err)
		}
	}
}

// checkReplication regenerates a replication's workload, simulates it
// on the event and the cycle engine, and checks that the two results
// are identical and that mc.Run reported the event result's figures.
func checkReplication(p mc.PointConfig, rep mc.Replication, tr *tracer) error {
	topo, err := topology.Parse(p.Topology)
	if err != nil {
		return err
	}
	root := tr.begin("replication", 0)
	defer tr.end(root)
	s := tr.begin("workload.GenerateOn", root)
	set, _, err := workload.GenerateOn(topo, workload.PaperDefaults(p.Streams, p.PLevels, rep.WorkloadSeed))
	tr.end(s)
	if err != nil {
		return err
	}
	scfg := sim.Config{Cycles: p.Cycles, Warmup: p.Warmup, Arbiter: p.Arbiter, BufferDepth: p.Buffer}
	s = tr.begin("eventsim.Run", root)
	ev, err := mc.RunEngine(mc.EngineEvent, set, scfg)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("sim.Run", root)
	cyc, err := mc.RunEngine(mc.EngineCycle, set, scfg)
	tr.end(s)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ev, cyc) {
		return fmt.Errorf("event and cycle engines disagree")
	}
	got := mc.Replication{Point: rep.Point, Seed: rep.Seed, WorkloadSeed: rep.WorkloadSeed}
	var all hist.H
	var sum int64
	for i := range cyc.PerStream {
		st := &cyc.PerStream[i]
		got.Generated += st.Generated
		got.Delivered += st.Delivered
		got.Observed += st.Observed
		got.Misses += st.Misses
		got.Unfinished += st.Unfinished
		sum += st.SumLatency
		all.Merge(&st.Latencies)
		if st.Observed > 0 && st.MaxLatency > got.MaxLatency {
			got.MaxLatency = st.MaxLatency
		}
	}
	if got.Observed > 0 {
		got.MissRatio = float64(got.Misses) / float64(got.Observed)
		got.MeanLatency = float64(sum) / float64(got.Observed)
		got.P95Latency = all.Quantile(0.95)
	}
	if got != rep {
		return fmt.Errorf("mc.Run reported %+v, cycle engine gives %+v", rep, got)
	}
	return nil
}
