package core_test

import (
	"fmt"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/routing"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestCalUMatchesFullHorizonOracleWorkloads pins Calc.CalU to the
// full-horizon oracle (core.CheckCalUOracle) on the sets the
// reproduction and the admission daemon analyse: §5 workloads at
// 20/40/60 streams and 1/4/8 priority levels, with and without period
// inflation, and the admission load's default stream pool at schedule
// seed 1 — whose inflated periods give deadlines of tens of thousands
// of slots — whole and as the live set after each mutation of its
// schedule. Every route of Calc.bound must be taken.
func TestCalUMatchesFullHorizonOracleWorkloads(t *testing.T) {
	var br core.CalUBranches
	for _, n := range []int{20, 40, 60} {
		for _, levels := range []int{1, 4, 8} {
			for _, inflate := range []bool{false, true} {
				cfg := workload.PaperDefaults(n, levels, int64(n+levels))
				cfg.InflatePeriods = inflate
				_, a, err := workload.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				core.CheckCalUOracle(t, a, &br, fmt.Sprintf("%d streams %d levels inflate=%v", n, levels, inflate))
			}
		}
	}
	cfg := loadgen.DefaultScheduleConfig(100, 150, 1)
	_, a, err := workload.Generate(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	core.CheckCalUOracle(t, a, &br, "admission pool")
	sched, err := loadgen.BuildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkScheduleStates(t, sched, cfg.Workload, &br)
	br.RequireAll(t)
}

// checkScheduleStates replays the schedule's mutations and pins CalU
// to the oracle on the live set after each one: the sets the admission
// daemon analyses under that schedule.
func checkScheduleStates(t *testing.T, sched *loadgen.Schedule, wl workload.Config, br *core.CalUBranches) {
	t.Helper()
	mesh := topology.NewMesh2D(wl.MeshW, wl.MeshH)
	router := routing.NewXY(mesh)
	type ref struct{ seq, idx int }
	var live []ref
	specs := map[ref]admit.Spec{}
	for _, op := range sched.Ops {
		switch op.Kind {
		case loadgen.OpAdmit, loadgen.OpJob:
			for i, sp := range op.Specs {
				live = append(live, ref{op.Seq, i})
				specs[ref{op.Seq, i}] = sp
			}
		case loadgen.OpWithdraw:
			for i, r := range live {
				if r == (ref{op.Ref, op.RefIdx}) {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		default:
			continue
		}
		set := stream.NewSet(mesh)
		for _, r := range live {
			sp := specs[r]
			if _, err := set.Add(router, sp.Src, sp.Dst, sp.Priority, sp.Period, sp.Length, sp.Deadline); err != nil {
				t.Fatal(err)
			}
		}
		a, err := core.NewAnalyzer(set)
		if err != nil {
			t.Fatal(err)
		}
		core.CheckCalUOracle(t, a, br, fmt.Sprintf("schedule op %d", op.Seq))
	}
}
