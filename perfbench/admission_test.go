package main

import (
	"testing"

	"repro/internal/admit"
	"repro/internal/loadgen"
)

// TestScheduleReplayHandleMapping replays an ordered schedule the way
// the benchmark does: a daemon hands out handles 1, 2, 3, ... in
// admission order, every withdraw op's Ref/RefIdx must resolve to a
// live handle, the replay controller must hand out the same handles,
// and the core replay must keep the controller's bounds throughout.
func TestScheduleReplayHandleMapping(t *testing.T) {
	sched, err := loadgen.BuildSchedule(loadgen.DefaultScheduleConfig(300, 1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	m := newHandleMap()
	rp, err := newCtlReplay()
	if err != nil {
		t.Fatal(err)
	}
	cr, err := newCoreReplay()
	if err != nil {
		t.Fatal(err)
	}
	next := admit.Handle(1)
	live := map[admit.Handle]bool{}
	withdrawals := 0
	for _, op := range sched.Ops {
		if op.Kind == loadgen.OpReport {
			continue
		}
		_, got, gone, err := rp.apply(op, nil, 0)
		if err != nil {
			t.Fatalf("op %d: %v", op.Seq, err)
		}
		switch op.Kind {
		case loadgen.OpAdmit, loadgen.OpJob:
			hs := make([]admit.Handle, len(op.Specs))
			for i := range hs {
				hs[i] = next
				live[next] = true
				next++
			}
			m.record(op.Seq, hs)
			if len(got) != len(hs) || got[0] != hs[0] {
				t.Fatalf("op %d: replay handles %v, daemon handles %v", op.Seq, got, hs)
			}
			_, err = cr.admit(op.Specs, got, nil, 0)
		case loadgen.OpWithdraw:
			h, ok := m.lookup(op.Ref, op.RefIdx)
			if !ok || !live[h] {
				t.Fatalf("op %d: withdraw of op %d #%d resolves to %d (ok=%v, live=%v)", op.Seq, op.Ref, op.RefIdx, h, ok, live[h])
			}
			if gone != h {
				t.Fatalf("op %d: replay withdrew %d, daemon %d", op.Seq, gone, h)
			}
			delete(live, h)
			withdrawals++
			_, err = cr.withdraw(h, nil, 0)
		}
		if err != nil {
			t.Fatalf("op %d: core replay: %v", op.Seq, err)
		}
		if !cr.sameBounds(rp.ctl.Report()) {
			t.Fatalf("op %d: core replay bounds differ from the controller's", op.Seq)
		}
	}
	if withdrawals == 0 {
		t.Fatal("schedule has no withdrawals")
	}
	streams := rp.ctl.Streams()
	if len(streams) != len(live) {
		t.Fatalf("controller holds %d streams, mapping says %d", len(streams), len(live))
	}
	for _, s := range streams {
		if !live[s.Handle] {
			t.Errorf("controller holds handle %d the mapping withdrew", s.Handle)
		}
	}
	if _, ok := m.lookup(-1, 0); ok {
		t.Error("lookup of an unknown op succeeded")
	}
	if _, ok := m.lookup(sched.Ops[0].Seq, 1); ok {
		t.Error("lookup past an op's handles succeeded")
	}
}

func TestAdmissionScheduleSeedDrawsArrivalsOnly(t *testing.T) {
	a, err := admissionSchedule(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := admissionSchedule(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameTimes := true
	for i := range a.Ops {
		if a.Ops[i].Kind != b.Ops[i].Kind || a.Ops[i].Ref != b.Ops[i].Ref || len(a.Ops[i].Specs) != len(b.Ops[i].Specs) {
			t.Fatalf("op %d differs between seeds", i)
		}
		sameTimes = sameTimes && a.Ops[i].At == b.Ops[i].At
	}
	if sameTimes {
		t.Error("seeds 1 and 2 drew the same arrival times")
	}
}
