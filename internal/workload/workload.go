// Package workload generates the random periodic message-stream sets
// of the paper's simulation study (§5):
//
//   - processing nodes are interconnected in a 10×10 two-dimensional
//     mesh with X-Y routing;
//   - each node is the source of at most one message stream, whose
//     destination is drawn from a spatial uniform distribution;
//   - the maximum message size C is uniformly distributed (the study
//     uses [1,40] flits — see DESIGN.md for the OCR reconstruction);
//   - the minimum inter-generation time T is uniformly distributed
//     (the study uses [40,90] flit times);
//   - every stream draws its priority uniformly from the configured
//     number of priority levels;
//   - when a stream's computed delay upper bound U exceeds its period,
//     the period (and deadline) is inflated to U so that all generated
//     traffic can be accommodated, exactly as the paper does.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Config parameterises the generator. The zero value is not valid; use
// PaperDefaults for the paper's setup.
type Config struct {
	MeshW, MeshH int
	Streams      int // number of message streams (<= number of nodes)
	PLevels      int // number of priority levels
	CMin, CMax   int // message length range, flits
	TMin, TMax   int // inter-generation time range, flit times
	Seed         int64
	// InflatePeriods applies the paper's rule T_i = max(T_i, U_i).
	// Disabled only by ablation experiments.
	InflatePeriods bool
	// UCap bounds the horizon searched for delay upper bounds during
	// period inflation; 0 means 65536 flit times (comfortably past the
	// paper's 30000-flit-time simulations).
	UCap int
}

// PaperDefaults returns the §5 configuration for a given stream count
// and priority-level count.
func PaperDefaults(streams, plevels int, seed int64) Config {
	return Config{
		MeshW: 10, MeshH: 10,
		Streams: streams, PLevels: plevels,
		CMin: 1, CMax: 40,
		TMin: 40, TMax: 90,
		Seed:           seed,
		InflatePeriods: true,
	}
}

// mesh returns the configured mesh, rejecting degenerate dimensions;
// GenerateOn's validateOn checks every other field against it.
func (c Config) mesh() (*topology.Mesh2D, error) {
	if c.MeshW < 2 || c.MeshH < 1 {
		return nil, fmt.Errorf("workload: invalid mesh %dx%d", c.MeshW, c.MeshH)
	}
	return topology.NewMesh2D(c.MeshW, c.MeshH), nil
}

// Generate builds a stream set per the configuration on the
// cfg.MeshW×cfg.MeshH mesh with X-Y routing. Sources are distinct nodes
// (each node sources at most one stream); destinations are uniform over
// the other nodes. Priorities are uniform over 1..PLevels (larger =
// more important). When InflatePeriods is set, the paper's
// period-inflation rule is applied and the returned analyzer reflects
// the final set.
func Generate(cfg Config) (*stream.Set, *core.Analyzer, error) {
	m, err := cfg.mesh()
	if err != nil {
		return nil, nil, err
	}
	return GenerateOn(m, cfg)
}

// InflatePeriods applies the paper's accommodation rule to set and
// returns it with an analyzer for the final periods: if U_i > T_i,
// raise T_i (and the deadline) to U_i. Raising periods only lowers
// interference, so a bound computed against the heavier pre-inflation
// demand remains valid; a few passes reach a fixpoint. Streams
// saturated past the search cap have their periods quadrupled instead,
// turning them into sporadic background traffic. ucap bounds the U
// search; 0 means 65536 flit times.
func InflatePeriods(set *stream.Set, a *core.Analyzer, ucap int) (*stream.Set, *core.Analyzer, error) {
	if ucap == 0 {
		ucap = 1 << 16
	}
	var err error
	for pass := 0; pass < 8; pass++ {
		changed := false
		calc := a.NewCalc()
		for _, s := range set.Streams {
			u, err := calc.CalUSearchCap(s.ID, ucap)
			if err != nil {
				return nil, nil, err
			}
			if u > s.Period {
				s.Period = u
				s.Deadline = u
				changed = true
			} else if u < 0 {
				// Inflating past the search cap is pointless (the
				// capped Cal_U search cannot use it) and the clamp
				// keeps the quadrupling provably inside int64.
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
		if a, err = core.NewAnalyzer(set); err != nil {
			return nil, nil, err
		}
	}
	return set, a, nil
}
