// Command netsim runs the flit-level wormhole simulator on a
// JSON-described stream set and reports per-stream latency statistics,
// optionally side by side with the analytical delay upper bounds.
//
// Usage:
//
//	netsim [-cycles N] [-warmup N] [-arbiter preemptive|nonpreemptive-fifo|nonpreemptive-priority|li]
//	       [-buffer N] [-strict] [-bounds] [-engine cycle|event] [file.json]
//	netsim -topology ring-16 [-streams N] [-plevels P] [-genseed S] ...
//
// With -topology, no input file is read: a paper-§5-style workload is
// generated on the named topology (mesh2d-WxH, torus2d-WxH,
// hypercube-D or ring-N) with its canonical deterministic routing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	cycles := flag.Int("cycles", 30000, "simulated flit times")
	warmup := flag.Int("warmup", 200, "start-up flit times omitted from statistics")
	arbiter := flag.String("arbiter", "preemptive", "priority handling: preemptive, nonpreemptive-fifo, nonpreemptive-priority, li")
	buffer := flag.Int("buffer", 2, "per-VC flit buffer depth")
	strict := flag.Bool("strict", false, "use the paper's literal (non-work-conserving) physical arbitration")
	bounds := flag.Bool("bounds", false, "also compute analytical delay upper bounds and report ratios")
	heatmap := flag.Bool("heatmap", false, "render a per-link utilisation heatmap (mesh topologies)")
	stalls := flag.Bool("stalls", false, "decompose per-stream time into progress/arbitration/VC/buffer cycles")
	dropLate := flag.Bool("droplate", false, "abort messages older than their deadline")
	jitter := flag.Int("jitter", 0, "sporadic release jitter added to each inter-release gap")
	deadlock := flag.Int("deadlock", 0, "deadlock-detector threshold in cycles (0 = off)")
	engine := flag.String("engine", mc.EngineCycle, "simulation engine: cycle (oracle) or event (fast)")
	topoName := flag.String("topology", "", "generate a §5-style workload on this topology (mesh2d-WxH, torus2d-WxH, hypercube-D, ring-N) instead of reading a stream-set file")
	streams := flag.Int("streams", 16, "generated streams (with -topology)")
	plevels := flag.Int("plevels", 4, "generated priority levels (with -topology)")
	genseed := flag.Int64("genseed", 1, "workload generation seed (with -topology)")
	flag.Parse()

	opts := simOptions{
		dropLate: *dropLate, jitter: *jitter, deadlock: *deadlock, engine: *engine,
		topology: *topoName, streams: *streams, plevels: *plevels, genseed: *genseed,
	}
	if err := run(*cycles, *warmup, *arbiter, *buffer, *strict, *bounds, *heatmap, *stalls, opts, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
}

func parseArbiter(s string) (sim.ArbiterKind, error) {
	for _, k := range []sim.ArbiterKind{sim.Preemptive, sim.NonPreemptiveFIFO, sim.NonPreemptivePriority, sim.Li} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown arbiter %q", s)
}

type simOptions struct {
	dropLate bool
	jitter   int
	deadlock int
	engine   string

	// Workload generation (-topology mode).
	topology string
	streams  int
	plevels  int
	genseed  int64
}

// loadSet reads the stream set from a file/stdin, or generates one on
// the named topology when -topology is set.
func loadSet(opts simOptions, args []string) (*stream.Set, error) {
	if opts.topology != "" {
		if len(args) > 0 {
			return nil, fmt.Errorf("-topology and an input file are mutually exclusive")
		}
		topo, err := topology.Parse(opts.topology)
		if err != nil {
			return nil, err
		}
		cfg := workload.PaperDefaults(opts.streams, opts.plevels, opts.genseed)
		set, _, err := workload.GenerateOn(topo, cfg)
		return set, err
	}
	var in io.Reader = os.Stdin
	if len(args) > 1 {
		return nil, fmt.Errorf("at most one input file, got %d", len(args))
	}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	return stream.DecodeSet(in)
}

func run(cycles, warmup int, arbiter string, buffer int, strict, bounds, heatmap, stalls bool, opts simOptions, args []string) error {
	set, err := loadSet(opts, args)
	if err != nil {
		return err
	}
	kind, err := parseArbiter(arbiter)
	if err != nil {
		return err
	}
	var us []int
	if bounds {
		a, err := core.NewAnalyzer(set)
		if err != nil {
			return err
		}
		us = make([]int, set.Len())
		calc := a.NewCalc()
		for _, s := range set.Streams {
			if us[s.ID], err = calc.CalUSearchCap(s.ID, 1<<16); err != nil {
				return err
			}
		}
	}
	res, err := mc.RunEngine(opts.engine, set, sim.Config{
		Cycles: cycles, Warmup: warmup, Arbiter: kind,
		BufferDepth: buffer, StrictPhysicalPriority: strict,
		DropLate: opts.dropLate, SporadicJitter: opts.jitter,
		DeadlockThreshold: opts.deadlock,
	})
	if err != nil {
		return err
	}

	fmt.Println(res.String())
	if res.FirstDeadlockCycle >= 0 {
		fmt.Printf("WARNING: deadlock suspected from cycle %d\n", res.FirstDeadlockCycle)
	}
	fmt.Printf("%-8s %-6s %-6s %-6s %-9s %-9s %-6s %-6s %-9s", "stream", "prio", "L", "gen", "observed", "mean", "p95", "max", "misses")
	if bounds {
		fmt.Printf(" %-8s %-9s", "U", "mean/U")
	}
	fmt.Println()
	for i := range res.PerStream {
		st := &res.PerStream[i]
		sdef := set.Get(stream.ID(i))
		fmt.Printf("M%-7d %-6d %-6d %-6d %-9d %-9.1f %-6d %-6d %-9d",
			i, sdef.Priority, sdef.Latency, st.Generated, st.Observed, st.Mean(), st.Latencies.Quantile(0.95), st.MaxLatency, st.Misses)
		if bounds {
			if us[i] > 0 {
				fmt.Printf(" %-8d %-9.3f", us[i], st.Mean()/float64(us[i]))
			} else {
				fmt.Printf(" %-8s %-9s", "-", "-")
			}
		}
		fmt.Println()
	}
	if stalls {
		fmt.Println("\nstall decomposition (cycles in flight per stream):")
		fmt.Printf("%-8s %-10s %-10s %-10s %-10s\n", "stream", "progress", "arb-stall", "vc-stall", "buf-stall")
		for i := range res.PerStream {
			st := &res.PerStream[i]
			fmt.Printf("M%-7d %-10d %-10d %-10d %-10d\n",
				i, st.ProgressCycles, st.ArbStallCycles, st.VCStallCycles, st.BufferStallCycles)
		}
	}
	if heatmap {
		m, ok := set.Topology.(*topology.Mesh2D)
		if !ok {
			return fmt.Errorf("-heatmap requires a mesh2d topology, got %s", set.Topology.Name())
		}
		fmt.Println()
		fmt.Print(sim.MeshHeatmap(m, res))
	}
	return nil
}
