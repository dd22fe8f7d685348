package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// GenerateOn is the paper's §5 generator — distinct uniform sources,
// uniform destinations, uniform C, T and priority, optional period
// inflation — realised on t with its canonical deterministic router.
// Generate is GenerateOn on a mesh. cfg.MeshW and cfg.MeshH are
// ignored; every other field keeps its Generate meaning. A seed swept
// across topologies (cmd/netsim -topology, cmd/rtwexplore) changes
// only the network, never the demand sequence.
func GenerateOn(t topology.Topology, cfg Config) (*stream.Set, *core.Analyzer, error) {
	if err := cfg.validateOn(t); err != nil {
		return nil, nil, err
	}
	router, err := routing.ForTopology(t)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	set := stream.NewSet(t)

	perm := rng.Perm(t.Nodes())
	for i := 0; i < cfg.Streams; i++ {
		src := topology.NodeID(perm[i])
		dst := src
		for dst == src {
			dst = topology.NodeID(rng.Intn(t.Nodes()))
		}
		prio := 1 + rng.Intn(cfg.PLevels)
		period := cfg.TMin + rng.Intn(cfg.TMax-cfg.TMin+1)
		length := cfg.CMin + rng.Intn(cfg.CMax-cfg.CMin+1)
		if _, err := set.Add(router, src, dst, prio, period, length, period); err != nil {
			return nil, nil, err
		}
	}

	a, err := core.NewAnalyzer(set)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.InflatePeriods {
		return set, a, nil
	}
	return InflatePeriods(set, a, cfg.UCap)
}

// validateOn checks the topology-independent fields against t.
func (c Config) validateOn(t topology.Topology) error {
	if t.Nodes() < 2 {
		return fmt.Errorf("workload: topology %s has %d nodes, need at least 2", t.Name(), t.Nodes())
	}
	if c.Streams < 1 || c.Streams > t.Nodes() {
		return fmt.Errorf("workload: %d streams on %d nodes of %s", c.Streams, t.Nodes(), t.Name())
	}
	if c.PLevels < 1 {
		return fmt.Errorf("workload: %d priority levels", c.PLevels)
	}
	if c.CMin < 1 || c.CMax < c.CMin {
		return fmt.Errorf("workload: invalid C range [%d,%d]", c.CMin, c.CMax)
	}
	if c.TMin < 1 || c.TMax < c.TMin {
		return fmt.Errorf("workload: invalid T range [%d,%d]", c.TMin, c.TMax)
	}
	return nil
}
