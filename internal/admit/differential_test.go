package admit

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
)

// This file extends the PR-2 differential battery (internal/core's
// dense-vs-bitset engines) one layer up: the incremental admission
// controller against the offline Determine-Feasibility. After every
// admit and withdraw of a random sequence, Controller.Report must be
// byte-identical — same JSON bytes, not just equivalent values — to a
// fresh core.DetermineFeasibility over the surviving streams rebuilt
// from scratch in admission order.

// randSpec draws a random stream on a w×h mesh: occasionally tight
// deadlines so that rejections (and their rollbacks) are exercised.
func randSpec(rng *rand.Rand, nodes int) Spec {
	src := rng.Intn(nodes)
	dst := rng.Intn(nodes)
	if src == dst {
		dst = (dst + 1) % nodes
	}
	period := 20 + rng.Intn(120)
	deadline := 0 // default: the period
	if rng.Intn(4) == 0 {
		deadline = 5 + rng.Intn(period)
	}
	return Spec{
		Src: topology.NodeID(src), Dst: topology.NodeID(dst),
		Priority: 1 + rng.Intn(5),
		Period:   period,
		Length:   1 + rng.Intn(9),
		Deadline: deadline,
	}
}

// mirrorReport rebuilds the surviving specs as a fresh set and runs
// the offline test — the oracle the controller is compared against.
func mirrorReport(t *testing.T, topo topology.Topology, specs []Spec) *core.Report {
	t.Helper()
	r, err := routing.ForTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	set := stream.NewSet(topo)
	for _, sp := range specs {
		if _, err := set.Add(r, sp.Src, sp.Dst, sp.Priority, sp.Period, sp.Length, sp.Deadline); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := core.DetermineFeasibility(set)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertReportsIdentical compares the two reports as JSON bytes.
func assertReportsIdentical(t *testing.T, got, want *core.Report, label string) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: reports differ\nincremental: %s\nfresh:       %s", label, gb, wb)
	}
}

// TestDifferentialAdmitWithdraw is the acceptance-criterion battery:
// seeded-random admit/withdraw sequences through the controller, with
// the report checked byte-identical against the offline oracle after
// every step. Every trial runs the incremental controller, whose
// Extend + Dependents path is the only admission path.
func TestDifferentialAdmitWithdraw(t *testing.T) {
	trials, steps := 25, 30
	if testing.Short() {
		trials, steps = 6, 15
	}
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < trials; trial++ {
		var topo topology.Topology
		switch trial % 3 {
		case 0:
			topo = topology.NewMesh2D(5+rng.Intn(3), 5+rng.Intn(3))
		case 1:
			topo = topology.NewTorus2D(4+rng.Intn(3), 4+rng.Intn(3))
		default:
			topo = topology.NewHypercube(4)
		}
		c, err := New(topo, Config{})
		if err != nil {
			t.Fatal(err)
		}
		type live struct {
			handle Handle
			spec   Spec
		}
		var mirror []live
		nodes := topo.Nodes()
		for step := 0; step < steps; step++ {
			if len(mirror) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(mirror))
				if _, err := c.Withdraw(mirror[k].handle); err != nil {
					t.Fatal(err)
				}
				mirror = append(mirror[:k], mirror[k+1:]...)
			} else if len(mirror) > 2 && rng.Intn(6) == 0 {
				// Occasional batch admission.
				batch := []Spec{randSpec(rng, nodes), randSpec(rng, nodes)}
				res, err := c.AdmitBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				if res.Admitted {
					for i, sp := range batch {
						mirror = append(mirror, live{res.Handles[i], sp})
					}
				}
			} else {
				sp := randSpec(rng, nodes)
				res, err := c.Admit(sp)
				if err != nil {
					t.Fatal(err)
				}
				if res.Admitted {
					mirror = append(mirror, live{res.Handles[0], sp})
				} else if res.Rejection == nil {
					t.Fatalf("trial %d step %d: rejected without a rejection", trial, step)
				} else {
					// The named victim must be infeasible in the
					// tentative report.
					v := res.Report.Verdicts[res.Rejection.Stream]
					if v.Feasible || v.U != res.Rejection.U || v.Deadline != res.Rejection.Deadline {
						t.Fatalf("trial %d step %d: rejection %+v inconsistent with verdict %+v",
							trial, step, res.Rejection, v)
					}
				}
			}
			specs := make([]Spec, len(mirror))
			for i, l := range mirror {
				specs[i] = l.spec
			}
			assertReportsIdentical(t, c.Report(), mirrorReport(t, topo, specs), "after step")
		}
	}
}

// TestDifferentialWorkloadScale runs the same comparison at the
// paper's simulation-study scale: a 10×10 mesh workload-style
// population with admissions and withdrawals.
func TestDifferentialWorkloadScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale differential skipped in -short")
	}
	rng := rand.New(rand.NewSource(7))
	topo := topology.NewMesh2D(10, 10)
	c, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var handles []Handle
	var specs []Spec
	for i := 0; i < 40; i++ {
		sp := randSpec(rng, 100)
		res, err := c.Admit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted {
			handles = append(handles, res.Handles[0])
			specs = append(specs, sp)
		}
	}
	for i := 0; i < 10 && len(handles) > 0; i++ {
		k := rng.Intn(len(handles))
		if _, err := c.Withdraw(handles[k]); err != nil {
			t.Fatal(err)
		}
		handles = append(handles[:k], handles[k+1:]...)
		specs = append(specs[:k], specs[k+1:]...)
	}
	assertReportsIdentical(t, c.Report(), mirrorReport(t, topo, specs), "workload scale")
}

// TestConcurrentAdmitHammer exists to run under `go test -race` (CI's
// race step covers internal/admit): goroutines admit, withdraw and
// read concurrently, then the surviving population is checked against
// the offline oracle. Mutations serialize inside the controller, so
// every interleaving must leave a coherent set.
func TestConcurrentAdmitHammer(t *testing.T) {
	topo := topology.NewMesh2D(8, 8)
	c, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	var wg sync.WaitGroup
	type owned struct {
		handle Handle
		spec   Spec
	}
	results := make([][]owned, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			var mine []owned
			for i := 0; i < 12; i++ {
				sp := randSpec(rng, 64)
				res, err := c.Admit(sp)
				if err != nil {
					continue // validation errors cannot happen; keep the hammer silent
				}
				if res.Admitted {
					mine = append(mine, owned{res.Handles[0], sp})
				}
				if len(mine) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(mine))
					if _, err := c.Withdraw(mine[k].handle); err == nil {
						mine = append(mine[:k], mine[k+1:]...)
					}
				}
				_ = c.Report()
				_ = c.Stats()
				_ = c.Streams()
			}
			// results slots are disjoint per goroutine; wg.Wait orders
			// the reads.
			results[g] = mine
		}(g)
	}
	wg.Wait()

	// The surviving streams, in the controller's admission order, must
	// be exactly the union of what the goroutines kept, and the report
	// must match the oracle on that set.
	byHandle := map[Handle]Spec{}
	for _, mine := range results {
		for _, o := range mine {
			byHandle[o.handle] = o.spec
		}
	}
	admitted := c.Streams()
	if len(admitted) != len(byHandle) {
		t.Fatalf("%d surviving streams, goroutines kept %d", len(admitted), len(byHandle))
	}
	specs := make([]Spec, len(admitted))
	for i, a := range admitted {
		sp, ok := byHandle[a.Handle]
		if !ok {
			t.Fatalf("controller holds unknown handle %d", a.Handle)
		}
		want := sp
		if want.Deadline == 0 {
			want.Deadline = want.Period
		}
		if a.Spec != want {
			t.Fatalf("handle %d: spec %+v, admitted as %+v", a.Handle, want, a.Spec)
		}
		specs[i] = sp
	}
	assertReportsIdentical(t, c.Report(), mirrorReport(t, topo, specs), "post-hammer")
}
