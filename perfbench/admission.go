package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/topology"
)

const (
	// admissionRate is the open-loop offered load, ops/s: well below the
	// daemon's closed-loop capacity, so the latencies describe a daemon
	// keeping up rather than a growing queue.
	admissionRate = 150.0
	// openShare of -seconds is spent in the open-loop phase.
	openShare = 0.65
	// closedOpsPerSecond sizes each closed-loop repeat: a fixed op count
	// per measured second, so every run does the same work.
	closedOpsPerSecond = 25
	closedRepeats      = 3
	// pinnedSeed fixes the op sequence: the spec pool and the order of
	// admissions and withdrawals of the pinned daemon profile
	// (BenchmarkDaemonLoad). The run's seed draws the arrival times. The
	// sequence is pinned because the share of mutations whose Cal_U
	// spans an inflated period of tens of thousands of slots differs up
	// to 60-fold between schedule seeds, which would swamp any change.
	pinnedSeed = 1
	// restarts is how many daemon restarts set-up time is the median of.
	restarts = 15
	// maxClients caps the load generator's client goroutines.
	maxClients = 2
)

var meshSpec = stream.TopologySpec{Kind: "mesh2d", W: 10, H: 10}

// handleMap maps a schedule's admit ops to the handles the daemon (or a
// replay controller) returned for them, so a withdraw op's Ref/RefIdx
// resolves to a concrete handle.
type handleMap struct {
	mu    sync.Mutex
	bySeq map[int][]admit.Handle
}

func newHandleMap() *handleMap { return &handleMap{bySeq: map[int][]admit.Handle{}} }

func (m *handleMap) record(seq int, hs []admit.Handle) {
	m.mu.Lock()
	m.bySeq[seq] = hs
	m.mu.Unlock()
}

func (m *handleMap) lookup(ref, idx int) (admit.Handle, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs, ok := m.bySeq[ref]
	if !ok || idx < 0 || idx >= len(hs) {
		return 0, false
	}
	return hs[idx], true
}

// opRecord is one executed operation. sched is when the open-loop
// schedule said to send it, sent when the request left, done when the
// response was read.
type opRecord struct {
	kind              loadgen.OpKind
	sched, sent, done time.Time
	err               error
}

func (r opRecord) mutation() bool { return r.kind != loadgen.OpReport }

// executor runs schedule ops against the daemon over HTTP and mirrors
// every committed mutation client-side.
type executor struct {
	base    string
	hc      *http.Client
	handles *handleMap

	mu      sync.Mutex
	settled map[int]chan struct{}
	mirror  map[admit.Handle]admit.Spec
}

func newExecutor(base string) *executor {
	tr := &http.Transport{MaxIdleConnsPerHost: maxClients}
	return &executor{
		base:    base,
		hc:      &http.Client{Transport: tr, Timeout: 30 * time.Second},
		handles: newHandleMap(),
		settled: map[int]chan struct{}{},
		mirror:  map[admit.Handle]admit.Spec{},
	}
}

// admitted counts the streams the daemon has admitted so far.
func (x *executor) admitted() int {
	x.handles.mu.Lock()
	defer x.handles.mu.Unlock()
	n := 0
	for _, hs := range x.handles.bySeq {
		n += len(hs)
	}
	return n
}

func (x *executor) settledCh(seq int) chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	ch, ok := x.settled[seq]
	if !ok {
		ch = make(chan struct{})
		x.settled[seq] = ch
	}
	return ch
}

// do sends one request and returns the status and body.
func (x *executor) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, x.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := x.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get fetches path and decodes a 200 response into v.
func (x *executor) get(path string, v any) ([]byte, error) {
	code, body, err := x.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	return body, json.Unmarshal(body, v)
}

func streamRequest(sp admit.Spec) server.StreamRequest {
	return server.StreamRequest{
		Src: int(sp.Src), Dst: int(sp.Dst), Priority: sp.Priority,
		Period: sp.Period, Length: sp.Length, Deadline: sp.Deadline,
	}
}

// exec runs one op after its dependencies settle and returns its
// record. Every outcome other than success is a failure: the schedule
// only offers admissions the analysis accepts, and the daemon runs
// without load shedding.
func (x *executor) exec(op loadgen.Op) opRecord {
	defer close(x.settledCh(op.Seq))
	for _, dep := range op.After {
		<-x.settledCh(dep)
	}
	rec := opRecord{kind: op.Kind}
	var method, path string
	var body []byte
	var h admit.Handle
	switch op.Kind {
	case loadgen.OpAdmit:
		method, path = http.MethodPost, "/v1/streams"
		body, rec.err = json.Marshal(streamRequest(op.Specs[0]))
	case loadgen.OpJob:
		job := server.JobRequest{Name: "perfbench"}
		for _, sp := range op.Specs {
			job.Streams = append(job.Streams, streamRequest(sp))
		}
		method, path = http.MethodPost, "/v1/jobs"
		body, rec.err = json.Marshal(job)
	case loadgen.OpWithdraw:
		<-x.settledCh(op.Ref)
		var ok bool
		if h, ok = x.handles.lookup(op.Ref, op.RefIdx); !ok {
			rec.err = fmt.Errorf("op %d: no handle for op %d #%d", op.Seq, op.Ref, op.RefIdx)
		}
		method, path = http.MethodDelete, fmt.Sprintf("/v1/streams/%d", h)
	case loadgen.OpReport:
		method, path = http.MethodGet, "/v1/report"
	}
	rec.sent = time.Now()
	if rec.err != nil {
		rec.done = rec.sent
		return rec
	}
	code, resp, err := x.do(method, path, body)
	rec.done = time.Now()
	switch {
	case err != nil:
		rec.err = fmt.Errorf("op %d %s: %w", op.Seq, op.Kind, err)
	case code != http.StatusOK:
		rec.err = fmt.Errorf("op %d %s: status %d: %s", op.Seq, op.Kind, code, resp)
	default:
		rec.err = x.commit(op, h, resp)
	}
	return rec
}

// commit folds a successful response into the handle map and mirror.
func (x *executor) commit(op loadgen.Op, h admit.Handle, resp []byte) error {
	switch op.Kind {
	case loadgen.OpAdmit, loadgen.OpJob:
		var ar server.AdmitResponse
		if err := json.Unmarshal(resp, &ar); err != nil {
			return fmt.Errorf("op %d: %w", op.Seq, err)
		}
		if len(ar.Handles) != len(op.Specs) || !ar.Feasible {
			return fmt.Errorf("op %d: %d handles for %d specs, feasible=%v", op.Seq, len(ar.Handles), len(op.Specs), ar.Feasible)
		}
		x.handles.record(op.Seq, ar.Handles)
		x.mu.Lock()
		for i, hh := range ar.Handles {
			x.mirror[hh] = op.Specs[i]
		}
		x.mu.Unlock()
	case loadgen.OpWithdraw:
		x.mu.Lock()
		delete(x.mirror, h)
		x.mu.Unlock()
	case loadgen.OpReport:
		var rep server.ReportResponse
		if err := json.Unmarshal(resp, &rep); err != nil {
			return fmt.Errorf("op %d: %w", op.Seq, err)
		}
		if !rep.Feasible {
			return fmt.Errorf("op %d: daemon reports an infeasible admitted set", op.Seq)
		}
	}
	return nil
}

// openLoop fires every op at its scheduled time from at most clients
// goroutines and returns the records plus the generator's lateness
// (actual hand-off minus scheduled time) in ms.
func openLoop(x *executor, sched *loadgen.Schedule, clients int) ([]opRecord, *samples) {
	recs := make([]opRecord, len(sched.Ops))
	// Sized to the schedule so the generator never blocks on busy
	// clients: a queued op's wait shows in its latency instead.
	ready := make(chan int, len(sched.Ops))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				due := recs[i].sched
				recs[i] = x.exec(sched.Ops[i])
				recs[i].sched = due
			}
		}()
	}
	late := &samples{}
	start := time.Now()
	for i, op := range sched.Ops {
		due := start.Add(op.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late.addDur(time.Since(due), time.Millisecond)
		recs[i].sched = due
		ready <- i
	}
	close(ready)
	wg.Wait()
	return recs, late
}

// closedLoop sends the ops back to back from one client.
func closedLoop(x *executor, sched *loadgen.Schedule) []opRecord {
	recs := make([]opRecord, len(sched.Ops))
	for i, op := range sched.Ops {
		recs[i] = x.exec(op)
		recs[i].sched = recs[i].sent
	}
	return recs
}

// verifyDaemon checks the daemon's final state: its stream list equals
// the client mirror, and its report equals a fresh offline analysis of
// the surviving streams, bound for bound.
func verifyDaemon(x *executor, o *outcome, label string) {
	var list struct {
		Streams []server.StreamInfo `json:"streams"`
	}
	if _, err := x.get("/v1/streams", &list); err != nil {
		o.check(false, "%s: %v", label, err)
		return
	}
	x.mu.Lock()
	mirrorOK := len(list.Streams) == len(x.mirror)
	for _, s := range list.Streams {
		sp, ok := x.mirror[s.Handle]
		deadline := sp.Deadline
		if deadline == 0 {
			deadline = sp.Period
		}
		if !ok || int(sp.Src) != s.Src || int(sp.Dst) != s.Dst || sp.Priority != s.Priority ||
			sp.Period != s.Period || sp.Length != s.Length || deadline != s.Deadline {
			mirrorOK = false
		}
	}
	x.mu.Unlock()
	o.check(mirrorOK, "%s: client mirror (%d streams) differs from /v1/streams (%d)", label, len(x.mirror), len(list.Streams))

	var rep server.ReportResponse
	if _, err := x.get("/v1/report", &rep); err != nil {
		o.check(false, "%s: %v", label, err)
		return
	}
	mesh := topology.NewMesh2D(meshSpec.W, meshSpec.H)
	set := stream.NewSet(mesh)
	router := routing.NewXY(mesh)
	for i, s := range list.Streams {
		if s.ID != i {
			o.check(false, "%s: /v1/streams row %d has id %d", label, i, s.ID)
			return
		}
		if _, err := set.Add(router, topology.NodeID(s.Src), topology.NodeID(s.Dst), s.Priority, s.Period, s.Length, s.Deadline); err != nil {
			o.check(false, "%s: %v", label, err)
			return
		}
	}
	fresh, err := core.DetermineFeasibility(set)
	if err != nil {
		o.check(false, "%s: %v", label, err)
		return
	}
	same := rep.Feasible == fresh.Feasible && len(rep.Verdicts) == len(fresh.Verdicts)
	for i := 0; same && i < len(rep.Verdicts); i++ {
		v, f := rep.Verdicts[i], fresh.Verdicts[i]
		same = v.ID == int(f.ID) && v.U == f.U && v.Deadline == f.Deadline &&
			v.Feasible == f.Feasible && v.Handle == list.Streams[i].Handle
	}
	o.check(same, "%s: /v1/report differs from a fresh DetermineFeasibility over %d streams", label, set.Len())
}

// ctlReplay applies schedule mutations, in schedule order, to an
// in-process controller: the state the daemon reaches when it serves
// the same schedule, handles included.
type ctlReplay struct {
	ctl     *admit.Controller
	handles *handleMap
}

func newCtlReplay() (*ctlReplay, error) {
	ctl, err := admit.New(topology.NewMesh2D(meshSpec.W, meshSpec.H), admit.Config{})
	if err != nil {
		return nil, err
	}
	return &ctlReplay{ctl: ctl, handles: newHandleMap()}, nil
}

// apply performs one mutation op, timing the controller call as a span
// under parent. It returns the call's duration (0 untraced), the
// handles an admission got, and the handle a withdrawal removed.
func (r *ctlReplay) apply(op loadgen.Op, tr *tracer, parent int) (time.Duration, []admit.Handle, admit.Handle, error) {
	switch op.Kind {
	case loadgen.OpAdmit, loadgen.OpJob:
		s := tr.begin("admit.AdmitBatch", parent)
		res, err := r.ctl.AdmitBatch(op.Specs)
		d := tr.end(s)
		if err != nil {
			return d, nil, 0, err
		}
		if !res.Admitted {
			return d, nil, 0, fmt.Errorf("op %d: replay rejected: %s", op.Seq, res.Rejection)
		}
		r.handles.record(op.Seq, res.Handles)
		return d, res.Handles, 0, nil
	case loadgen.OpWithdraw:
		h, ok := r.handles.lookup(op.Ref, op.RefIdx)
		if !ok {
			return 0, nil, 0, fmt.Errorf("op %d: no handle for op %d #%d", op.Seq, op.Ref, op.RefIdx)
		}
		s := tr.begin("admit.Withdraw", parent)
		_, err := r.ctl.Withdraw(h)
		return tr.end(s), nil, h, err
	}
	return 0, nil, 0, fmt.Errorf("op %d: %s is not a mutation", op.Seq, op.Kind)
}

// bootFromSnapshot starts a daemon that restores snap and returns the
// time until /healthz first answers 200, plus its /v1/report body.
func bootFromSnapshot(snap string) (time.Duration, []byte, error) {
	t0 := time.Now()
	d, err := loadgen.StartInProc(loadgen.InProcConfig{Topology: meshSpec, SnapshotPath: snap})
	if err != nil {
		return 0, nil, err
	}
	x := newExecutor(d.URL())
	defer stopDaemon(d, x)
	for {
		code, _, err := x.do(http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(t0) > 10*time.Second {
			return 0, nil, fmt.Errorf("daemon not healthy after restore: status %d, %v", code, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	dt := time.Since(t0)
	var rep server.ReportResponse
	body, err := x.get("/v1/report", &rep)
	return dt, body, err
}

func stopDaemon(d *loadgen.InProc, x *executor) {
	x.hc.CloseIdleConnections()
	_ = d.Kill() // the run is over; its state was checked already
}

func runAdmission(rc runConfig, o *outcome) {
	clients := min(maxClients, runtime.GOMAXPROCS(0))
	openOps := int(admissionRate * rc.seconds * openShare)
	openSched, err := admissionSchedule(openOps, rc.seed)
	if err != nil {
		o.check(false, "schedule: %v", err)
		return
	}
	// The closed loop sends the same op sequence back to back.
	closedSched := &loadgen.Schedule{Ops: openSched.Ops[:min(openOps, int(closedOpsPerSecond*rc.seconds))]}

	// Open loop on a fresh daemon. The timed daemons keep no snapshot:
	// persistence would put the fsync latency of the checkout's shared
	// disk into every mutation. Its cost is measured per layer instead.
	d, x, err := startDaemon()
	if err != nil {
		o.check(false, "boot: %v", err)
		return
	}
	p := startPhase()
	openRecs, late := openLoop(x, openSched, clients)
	openWall, util, openAlloc := p.stop()
	verifyDaemon(x, o, "open loop")
	var pre server.ReportResponse
	preBody, err := x.get("/v1/report", &pre)
	o.check(err == nil, "open loop: report: %v", err)
	var list struct {
		Streams []server.StreamInfo `json:"streams"`
	}
	_, err = x.get("/v1/streams", &list)
	o.check(err == nil, "open loop: streams: %v", err)
	stopDaemon(d, x)

	// Set-up: boot a daemon from a snapshot of the state the open loop
	// left.
	snap := filepath.Join(rc.work, "state.json")
	if err := writeSnapshot(snap, list.Streams, x.admitted()); err != nil {
		o.check(false, "snapshot of the open-loop state: %v", err)
		return
	}
	var setups []float64
	for i := 0; i < restarts; i++ {
		dt, body, err := bootFromSnapshot(snap)
		setups = append(setups, dt.Seconds())
		o.check(err == nil && bytes.Equal(preBody, body), "restore %d: report differs from the open-loop daemon's (%v)", i, err)
	}

	// Closed loop, repeated on fresh daemons; throughput is the median.
	var closedRecs []opRecord
	var rates []float64
	var closedAlloc uint64
	for i := 0; i < closedRepeats; i++ {
		d, cx, err := startDaemon()
		if err != nil {
			o.check(false, "boot: %v", err)
			return
		}
		p = startPhase()
		recs := closedLoop(cx, closedSched)
		wall, _, alloc := p.stop()
		verifyDaemon(cx, o, fmt.Sprintf("closed loop %d", i+1))
		stopDaemon(d, cx)
		closedRecs = append(closedRecs, recs...)
		closedAlloc += alloc
		rates = append(rates, float64(len(recs))/wall.Seconds())
	}

	// Metrics. The gated tail is the closed loop's: with one client and
	// no queue, its p99 is the cost of the slowest mutations of the
	// pinned sequence. The open-loop p99 also depends on how the Poisson
	// arrivals line up with those mutations and spreads too widely
	// between seeds to gate; it is reported per layer.
	var mut, closedMut, reads, wait samples
	var errs []error
	for _, r := range openRecs {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		lat := r.done.Sub(r.sched)
		if r.mutation() {
			mut.addDur(lat, time.Millisecond)
		} else {
			reads.addDur(lat, time.Millisecond)
		}
		wait.addDur(r.sent.Sub(r.sched), time.Millisecond)
	}
	for _, r := range closedRecs {
		switch {
		case r.err != nil:
			errs = append(errs, r.err)
		case r.mutation():
			closedMut.addDur(r.done.Sub(r.sent), time.Millisecond)
		}
	}
	for _, err := range errs[:min(3, len(errs))] {
		o.problems = append(o.problems, err.Error())
	}
	o.ops(len(openRecs)+len(closedRecs), len(errs))
	o.pct("latency_p50_ms", &mut, 500)
	o.pct("latency_tail_ms", &closedMut, 990)
	o.set("throughput_per_s", median(rates), len(rates))
	o.set("setup_s", median(setups), len(setups))
	o.set("alloc_kb_per_op", float64(openAlloc+closedAlloc)/1024/float64(len(openRecs)+len(closedRecs)), len(openRecs)+len(closedRecs))
	o.note("admission: open loop %d ops at %.0f ops/s in %.2fs, %d clients; closed loop %dx%d ops at %.0f ops/s",
		len(openRecs), admissionRate, openWall.Seconds(), clients, closedRepeats, len(closedSched.Ops), median(rates))

	// The open-loop numbers are only the daemon's if the generator kept
	// to its schedule: a generator running later than the latencies it
	// measures would be timing itself.
	if lp, err := late.percentile(990); err == nil {
		if mp, err := mut.percentile(990); err == nil {
			o.check(lp < mp, "generator p99 lateness %.3fms exceeds mutation p99 latency %.3fms: run invalid", lp, mp)
		}
	}

	if rc.trace {
		o.pct("admission.open_p99_ms", &mut, 990)
		o.pct("server.report_ms_p95", &reads, 950)
		o.pct("admission.wait_ms_p99", &wait, 990)
		o.set("loadgen.late_ms_max", late.max(), late.n())
		o.set("proc.cpu_util", util, 1)
		traceAdmission(rc, o, openSched, openRecs, snap)
	}
}

// admissionSchedule is the pinned op sequence with Poisson arrivals at
// admissionRate drawn from seed.
func admissionSchedule(ops int, seed int64) (*loadgen.Schedule, error) {
	sched, err := loadgen.BuildSchedule(loadgen.DefaultScheduleConfig(ops, admissionRate, pinnedSeed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	at := time.Duration(0)
	for i := range sched.Ops {
		at += time.Duration(rng.ExpFloat64() / admissionRate * float64(time.Second))
		sched.Ops[i].At = at
	}
	sched.Horizon = at
	return sched, nil
}

// writeSnapshot stores the daemon state listed by /v1/streams the way
// the daemon persists it: restored into a controller, which recomputes
// every bound, and saved with server.SaveSnapshot.
func writeSnapshot(path string, streams []server.StreamInfo, admitted int) error {
	ts, err := stream.SpecForTopology(topology.NewMesh2D(meshSpec.W, meshSpec.H))
	if err != nil {
		return err
	}
	sn := &admit.Snapshot{Topology: ts, NextHandle: admit.Handle(admitted + 1)}
	for _, s := range streams {
		sn.Streams = append(sn.Streams, admit.SnapshotStream{
			Handle: s.Handle, Src: s.Src, Dst: s.Dst, Priority: s.Priority,
			Period: s.Period, Length: s.Length, Deadline: s.Deadline,
		})
	}
	ctl, err := admit.Restore(sn, admit.Config{})
	if err != nil {
		return err
	}
	return server.SaveSnapshot(ctl, path)
}

// startDaemon boots an in-process daemon on loopback without
// persistence.
func startDaemon() (*loadgen.InProc, *executor, error) {
	d, err := loadgen.StartInProc(loadgen.InProcConfig{Topology: meshSpec})
	if err != nil {
		return nil, nil, err
	}
	return d, newExecutor(d.URL()), nil
}
