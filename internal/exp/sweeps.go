package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/priority"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// LoadPoint is one point of a latency-vs-load curve.
type LoadPoint struct {
	Scale      float64 // period scale: 1.0 = the generated workload, smaller = more load
	MeanLat    float64 // mean latency over all streams
	TopMeanLat float64 // mean latency of the highest priority level
	Misses     int
	Delivered  int
}

// LoadSweep produces the classic saturation curve: the same workload is
// injected at increasing rates (periods scaled down) and simulated
// under the given switching discipline. Near saturation, the mean
// latency of classic non-preemptive wormhole switching blows up first;
// the paper's preemptive scheme keeps the high-priority latency flat —
// the behavioural claim behind Figure 2, swept over load instead of a
// single adversarial scenario.
func LoadSweep(streams, plevels int, seed int64, scales []float64, arbiter sim.ArbiterKind, cycles int) ([]LoadPoint, error) {
	// The load-scale axis is validated up front by the shared grid
	// helpers (package grid), the same machinery the design-space
	// explorer sweeps with, so the two kinds of sweep cannot drift.
	if err := grid.PositiveFloats("load scale", scales); err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	cfg := workload.PaperDefaults(streams, plevels, seed)
	cfg.InflatePeriods = false
	base, _, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	topPrio := 0
	for _, s := range base.Streams {
		if s.Priority > topPrio {
			topPrio = s.Priority
		}
	}
	var out []LoadPoint
	for _, scale := range scales {
		scaled := stream.NewSet(base.Topology)
		scaled.RouterLatency = base.RouterLatency
		for _, s := range base.Streams {
			period := int(float64(s.Period) * scale)
			if period < s.Length {
				period = s.Length // keep per-stream load <= 100%
			}
			ns := *s
			ns.ID = stream.ID(scaled.Len())
			ns.Period = period
			ns.Deadline = period
			scaled.Streams = append(scaled.Streams, &ns)
		}
		simulator, err := sim.New(scaled, sim.Config{Cycles: cycles, Warmup: 200, Arbiter: arbiter})
		if err != nil {
			return nil, err
		}
		res := simulator.Run()
		p := LoadPoint{Scale: scale}
		var sum float64
		var n int
		var topSum float64
		var topN int
		for i := range res.PerStream {
			st := &res.PerStream[i]
			if st.Observed == 0 {
				continue
			}
			sum += st.Mean()
			n++
			p.Misses += st.Misses
			p.Delivered += st.Observed
			if scaled.Get(stream.ID(i)).Priority == topPrio {
				topSum += st.Mean()
				topN++
			}
		}
		if n > 0 {
			p.MeanLat = sum / float64(n)
		}
		if topN > 0 {
			p.TopMeanLat = topSum / float64(topN)
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatLoadSweep renders one curve per arbiter, given parallel result
// slices.
func FormatLoadSweep(title string, byArbiter map[string][]LoadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-8s", title, "scale")
	var names []string
	for name := range byArbiter {
		names = append(names, name)
	}
	// Stable order: preemptive first if present.
	orderHint := []string{"preemptive", "li", "nonpreemptive-priority", "nonpreemptive-fifo"}
	var ordered []string
	for _, h := range orderHint {
		for _, n := range names {
			if n == h {
				ordered = append(ordered, n)
			}
		}
	}
	for _, n := range names {
		found := false
		for _, o := range ordered {
			if o == n {
				found = true
			}
		}
		if !found {
			ordered = append(ordered, n)
		}
	}
	for _, n := range ordered {
		fmt.Fprintf(&b, " %22s", n+" mean/top")
	}
	b.WriteByte('\n')
	if len(ordered) == 0 {
		return b.String()
	}
	for i := range byArbiter[ordered[0]] {
		fmt.Fprintf(&b, "%-8.2f", byArbiter[ordered[0]][i].Scale)
		for _, n := range ordered {
			p := byArbiter[n][i]
			fmt.Fprintf(&b, " %12.1f/%9.1f", p.MeanLat, p.TopMeanLat)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// QuantizationPoint records bound tightness when many logical
// priorities are squeezed onto few virtual channels.
type QuantizationPoint struct {
	VCs      int
	TopRatio float64
	Exceeded int
}

// QuantizationSweep generates one workload with per-stream distinct
// logical priorities (rate-monotonic order) and quantizes it onto
// progressively fewer VC levels, reporting the top-band ratio — the
// paper's "practical resource constraints" trade-off made concrete.
func QuantizationSweep(streams int, vcCounts []int, seed int64, cycles int) ([]QuantizationPoint, error) {
	if err := grid.PositiveInts("vc count", vcCounts); err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	var out []QuantizationPoint
	for _, vcs := range vcCounts {
		cfg := workload.PaperDefaults(streams, 1, seed)
		cfg.InflatePeriods = false
		set, _, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		if err := (priority.RateMonotonic{}).Assign(set); err != nil {
			return nil, err
		}
		if err := (priority.Quantize{Levels: vcs}).Assign(set); err != nil {
			return nil, err
		}
		analyzer, err := core.NewAnalyzer(set)
		if err != nil {
			return nil, err
		}
		us, res, err := BoundAndSimulate(analyzer, 0, sim.Config{Cycles: cycles, Warmup: 200})
		if err != nil {
			return nil, err
		}
		table, err := metrics.Build(fmt.Sprintf("%d VCs", vcs), set, us, res)
		if err != nil {
			return nil, err
		}
		p := QuantizationPoint{VCs: vcs, TopRatio: table.TopLevelMeanRatio()}
		for _, row := range table.Rows {
			p.Exceeded += row.Exceeded
		}
		out = append(out, p)
	}
	return out, nil
}

// RouterLatencyPoint records bound and measurement for one router
// pipeline depth.
type RouterLatencyPoint struct {
	R          int
	MeanU      float64 // mean delay bound over the bounded streams
	MeanActual float64 // mean measured latency over observed streams
}

// RouterLatencySweep re-runs a fixed workload with increasing per-hop
// router pipeline depth: both the analytical bounds and the simulated
// latencies grow together, showing the model extension stays
// consistent end to end.
func RouterLatencySweep(streams, plevels int, seed int64, depths []int, cycles int) ([]RouterLatencyPoint, error) {
	if err := grid.NonNegativeInts("router latency", depths); err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	var out []RouterLatencyPoint
	for _, r := range depths {
		cfg := workload.PaperDefaults(streams, plevels, seed)
		cfg.InflatePeriods = false
		base, _, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		// Rebuild the same streams on a set with router latency r.
		set := stream.NewSetWithRouterLatency(base.Topology, r)
		for _, s := range base.Streams {
			ns := *s
			ns.ID = stream.ID(set.Len())
			ns.Latency = stream.NetworkLatencyWithRouter(s.Path.Hops(), s.Length, r)
			set.Streams = append(set.Streams, &ns)
		}
		analyzer, err := core.NewAnalyzer(set)
		if err != nil {
			return nil, err
		}
		us, res, err := BoundAndSimulate(analyzer, 0, sim.Config{Cycles: cycles, Warmup: 200})
		if err != nil {
			return nil, err
		}
		p := RouterLatencyPoint{R: r}
		var nu, na int
		for _, s := range set.Streams {
			if u := us[s.ID]; u > 0 {
				p.MeanU += float64(u)
				nu++
			}
			if st := &res.PerStream[s.ID]; st.Observed > 0 {
				p.MeanActual += st.Mean()
				na++
			}
		}
		if nu > 0 {
			p.MeanU /= float64(nu)
		}
		if na > 0 {
			p.MeanActual /= float64(na)
		}
		out = append(out, p)
	}
	return out, nil
}
