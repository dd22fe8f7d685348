package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/topology"
)

// coreReplay repeats the admission controller's analysis steps on a
// core.Analyzer of its own — Extend for an admission, NewAnalyzer over
// the survivors for a withdrawal, then Dependents and
// CalUBatchParallel — so each step can be timed on its own.
type coreReplay struct {
	topo    topology.Topology
	router  routing.Router
	set     *stream.Set
	a       *core.Analyzer
	u       []int
	handles []admit.Handle
}

func newCoreReplay() (*coreReplay, error) {
	mesh := topology.NewMesh2D(meshSpec.W, meshSpec.H)
	set := stream.NewSet(mesh)
	a, err := core.NewAnalyzer(set)
	if err != nil {
		return nil, err
	}
	return &coreReplay{topo: mesh, router: routing.NewXY(mesh), set: set, a: a}, nil
}

// admit appends specs under the handles the controller gave them.
func (r *coreReplay) admit(specs []admit.Spec, hs []admit.Handle, tr *tracer, parent int) (int, error) {
	n := r.set.Len()
	cand := &stream.Set{Topology: r.topo, Streams: make([]*stream.Stream, n, n+len(specs))}
	copy(cand.Streams, r.set.Streams)
	ids := make([]stream.ID, len(specs))
	for k, sp := range specs {
		path, err := r.router.Route(sp.Src, sp.Dst)
		if err != nil {
			return 0, err
		}
		d := sp.Deadline
		if d == 0 {
			d = sp.Period
		}
		ids[k] = stream.ID(n + k)
		cand.Streams = append(cand.Streams, &stream.Stream{
			ID: ids[k], Src: sp.Src, Dst: sp.Dst, Priority: sp.Priority,
			Period: sp.Period, Length: sp.Length, Deadline: d,
			Latency: stream.NetworkLatencyWithRouter(path.Hops(), sp.Length, 0),
			Path:    path,
		})
	}
	s := tr.begin("core.Extend", parent)
	a, err := r.a.Extend(cand)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("core.Dependents", parent)
	dirty, err := a.Dependents(ids...)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("core.CalUBatchParallel", parent)
	us, err := a.CalUBatchParallel(dirty, 0)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	u := make([]int, cand.Len())
	copy(u, r.u)
	for k, id := range dirty {
		u[id] = us[k]
	}
	r.set, r.a, r.u = cand, a, u
	r.handles = append(r.handles, hs...)
	return len(dirty), nil
}

// withdraw removes the stream with handle h.
func (r *coreReplay) withdraw(h admit.Handle, tr *tracer, parent int) (int, error) {
	leaving := -1
	for i, hh := range r.handles {
		if hh == h {
			leaving = i
		}
	}
	if leaving < 0 {
		return 0, fmt.Errorf("core replay: no handle %d", h)
	}
	s := tr.begin("core.Dependents", parent)
	dirtyOld, err := r.a.Dependents(stream.ID(leaving))
	tr.end(s)
	if err != nil {
		return 0, err
	}
	n := r.set.Len()
	survivors := &stream.Set{Topology: r.topo, Streams: make([]*stream.Stream, 0, n-1)}
	u := make([]int, 0, n-1)
	handles := make([]admit.Handle, 0, n-1)
	for i, st := range r.set.Streams {
		if i == leaving {
			continue
		}
		if int(st.ID) != len(survivors.Streams) {
			moved := *st
			moved.ID = stream.ID(len(survivors.Streams))
			st = &moved
		}
		survivors.Streams = append(survivors.Streams, st)
		u = append(u, r.u[i])
		handles = append(handles, r.handles[i])
	}
	s = tr.begin("core.NewAnalyzer", parent)
	a, err := core.NewAnalyzer(survivors)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	var dirty []stream.ID
	for _, id := range dirtyOld {
		switch {
		case int(id) < leaving:
			dirty = append(dirty, id)
		case int(id) > leaving:
			dirty = append(dirty, id-1)
		}
	}
	s = tr.begin("core.CalUBatchParallel", parent)
	us, err := a.CalUBatchParallel(dirty, 0)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	for k, id := range dirty {
		u[id] = us[k]
	}
	r.set, r.a, r.u, r.handles = survivors, a, u, handles
	return len(dirty), nil
}

// sameBounds reports whether the replay's bounds equal the report's.
func (r *coreReplay) sameBounds(rep *core.Report) bool {
	if len(rep.Verdicts) != len(r.u) {
		return false
	}
	for i, v := range rep.Verdicts {
		if v.U != r.u[i] {
			return false
		}
	}
	return true
}

// encodeSnapshot is the in-memory half of server.SaveSnapshot: the
// controller's snapshot rendered as the daemon writes it.
func encodeSnapshot(c *admit.Controller) ([]byte, error) {
	sn, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(sn, "", "  ")
}

// traceRepeats is how many times the traced run replays the open-loop
// mutations, so the p99 of each call type rests on enough samples.
const traceRepeats = 2

// traceAdmission replays the open loop's mutation sequence in-process,
// in schedule order, on an admit.Controller and on the core replay,
// timing each public call. The controller sees exactly the mutations
// the daemon saw, in the same order, so its calls repeat the daemon's
// work. The first pass also times the snapshot write each mutation
// would cost a persisting daemon.
func traceAdmission(rc runConfig, o *outcome, sched *loadgen.Schedule, openRecs []opRecord, snap string) {
	tr := newTracer()
	diskSnap := filepath.Join(rc.work, "replay", "state.json")
	if err := os.MkdirAll(filepath.Dir(diskSnap), 0o755); err != nil {
		o.check(false, "trace: %v", err)
		return
	}
	var httpSelf, dirty, snapBytes samples
	for pi := 0; pi < traceRepeats; pi++ {
		rp, err := newCtlReplay()
		if err != nil {
			o.check(false, "trace: %v", err)
			return
		}
		cr, err := newCoreReplay()
		if err != nil {
			o.check(false, "trace: %v", err)
			return
		}
		matched := true
		for i, op := range sched.Ops {
			if op.Kind == loadgen.OpReport {
				continue
			}
			root := tr.begin("replay.mutation", 0)
			ctlDur, admitted, withdrawn, err := rp.apply(op, tr, root)
			if err != nil {
				o.check(false, "trace: replay: %v", err)
				return
			}
			var nd int
			if admitted != nil {
				nd, err = cr.admit(op.Specs, admitted, tr, root)
			} else {
				nd, err = cr.withdraw(withdrawn, tr, root)
			}
			if err != nil {
				o.check(false, "trace: core replay op %d: %v", op.Seq, err)
				return
			}
			dirty.add(float64(nd))
			matched = matched && cr.sameBounds(rp.ctl.Report())

			s := tr.begin("server.snapshot_encode", root)
			data, err := encodeSnapshot(rp.ctl)
			tr.end(s)
			if err != nil {
				o.check(false, "trace: snapshot: %v", err)
				return
			}
			snapBytes.add(float64(len(data) + 1))
			if pi == 0 {
				s = tr.begin("server.SaveSnapshot", root)
				err := server.SaveSnapshot(rp.ctl, diskSnap)
				tr.end(s)
				if err != nil {
					o.check(false, "trace: save snapshot: %v", err)
					return
				}
				// The daemon's round trip for the same op minus its
				// controller call: decoding, routing, encoding, loopback.
				rt := openRecs[i].done.Sub(openRecs[i].sent)
				self := selfTimes([]span{{ID: 1, End: rt}, {ID: 2, Parent: 1, End: ctlDur}})[0]
				httpSelf.addDur(self, time.Microsecond)
			}
			tr.end(root)
		}
		o.check(matched, "trace: core replay bounds differ from the controller's Report() (pass %d)", pi+1)
	}

	var restores []float64
	for i := 0; i < restarts; i++ {
		s := tr.begin("server.LoadSnapshot", 0)
		_, ok, err := server.LoadSnapshot(snap, admit.Config{})
		restores = append(restores, float64(tr.end(s))/float64(time.Millisecond))
		o.check(ok && err == nil, "trace: restore: ok=%v err=%v", ok, err)
	}

	by := tr.selfByName(time.Microsecond)
	for name, metric := range map[string]string{
		"admit.AdmitBatch":       "admit.admit_us_",
		"admit.Withdraw":         "admit.withdraw_us_",
		"core.CalUBatchParallel": "core.calu_batch_us_",
	} {
		o.pct(metric+"p50", orEmpty(by[name]), 500)
		o.pct(metric+"p99", orEmpty(by[name]), 990)
	}
	o.pct("core.extend_us_p50", orEmpty(by["core.Extend"]), 500)
	o.pct("core.rebuild_us_p50", orEmpty(by["core.NewAnalyzer"]), 500)
	o.pct("core.dependents_us_p50", orEmpty(by["core.Dependents"]), 500)
	o.pct("server.snapshot_us_p50", orEmpty(by["server.snapshot_encode"]), 500)
	o.pct("server.snapshot_disk_us_p50", orEmpty(by["server.SaveSnapshot"]), 500)
	o.pct("server.http_self_us_p50", &httpSelf, 500)
	o.pct("server.snapshot_bytes", &snapBytes, 500)
	o.set("core.dirty_per_mutation", dirty.mean(), dirty.n())
	o.set("server.restore_ms", median(restores), len(restores))
	if err := tr.write(filepath.Join(rc.root, ".bench_build", "trace"), fmt.Sprintf("admission-seed%d.json", rc.seed)); err != nil {
		o.check(false, "trace: write spans: %v", err)
	}
}

func orEmpty(s *samples) *samples {
	if s == nil {
		return &samples{}
	}
	return s
}
