// Package e2e composes the paper's communication analysis with
// classical fixed-priority CPU scheduling into end-to-end guarantees
// for distributed task chains — the full problem the paper's
// introduction motivates: "several cooperating tasks running on
// different processing nodes have to communicate with each other, and
// if these tasks have timing constraints such as deadlines,
// unpredictable delay of message transmission can adversely affect the
// execution of the tasks dependent on the messages".
//
// Each node runs its tasks under preemptive fixed-priority scheduling
// (response times via the standard recurrence); messages between tasks
// are the paper's real-time streams with delay upper bounds from
// package core. A chain t0 -> s0 -> t1 -> s1 -> ... is guaranteed iff
// the sum of its task response times and stream bounds fits the
// end-to-end deadline.
package e2e

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Task is a periodic computation pinned to a node, scheduled with
// preemptive fixed priorities (larger Priority = more important).
// Times are in the same flit-time unit as the network model.
type Task struct {
	Name     string
	Node     topology.NodeID
	WCET     int
	Period   int
	Priority int
}

// Chain is an end-to-end pipeline: Tasks[i] sends Streams[i] to
// Tasks[i+1]. len(Streams) must be len(Tasks)-1.
type Chain struct {
	Name     string
	Tasks    []int       // indices into System.Tasks
	Streams  []stream.ID // connecting streams, in order
	Deadline int         // end-to-end deadline
}

// System bundles the tasks, the message streams and the chains.
type System struct {
	Tasks  []Task
	Set    *stream.Set
	Chains []Chain
}

// maxResponseHorizon caps the task response-time recurrence.
const maxResponseHorizon = 1 << 20

// TaskResponseTime computes the classic fixed-priority preemptive
// response time of Tasks[idx] against the higher-or-equal-priority
// tasks on the same node:
//
//	R = C + sum over j of ceil(R / T_j) * C_j
//
// It returns -1 when the recurrence diverges (node overloaded).
func (sys *System) TaskResponseTime(idx int) (int, error) {
	if idx < 0 || idx >= len(sys.Tasks) {
		return 0, fmt.Errorf("e2e: no task %d", idx)
	}
	t := sys.Tasks[idx]
	if t.WCET < 1 || t.Period < 1 {
		return 0, fmt.Errorf("e2e: task %q has non-positive WCET/period", t.Name)
	}
	var hp []Task
	for j, o := range sys.Tasks {
		if j == idx || o.Node != t.Node || o.Priority < t.Priority {
			continue
		}
		if o.WCET < 1 || o.Period < 1 {
			return 0, fmt.Errorf("e2e: task %q has non-positive WCET/period", o.Name)
		}
		hp = append(hp, o)
	}
	r := t.WCET
	for iter := 0; iter < 1<<16; iter++ {
		next := t.WCET
		for _, o := range hp {
			//rtwlint:ignore intoverflow -- standard RTA ceiling term: r <= maxResponseHorizon (1<<20) is enforced before every reuse below, WCET/Period >= 1 are validated at entry, so the product is <= maxResponseHorizon * WCET of a feasible task; bounding slice-element fields is outside the interval domain
			next += ((r + o.Period - 1) / o.Period) * o.WCET
		}
		if next == r {
			return r, nil
		}
		if next > maxResponseHorizon {
			return -1, nil
		}
		r = next
	}
	return -1, nil
}

// ChainVerdict is the end-to-end outcome for one chain.
type ChainVerdict struct {
	Name      string
	Bound     int // -1 when some component has no bound
	Deadline  int
	Feasible  bool
	TaskPart  int // sum of task response times
	CommsPart int // sum of stream delay upper bounds
}

// Report is the outcome of Analyze.
type Report struct {
	TaskR    []int // per-task response time (-1: unbounded)
	StreamU  []int // per-stream delay upper bound (-1: unbounded)
	Chains   []ChainVerdict
	Feasible bool
}

// Format renders the report.
func (r *Report) Format() string {
	var b strings.Builder
	for _, c := range r.Chains {
		status := "ok"
		if !c.Feasible {
			status = "MISSES DEADLINE"
		}
		bound := fmt.Sprintf("%d", c.Bound)
		if c.Bound < 0 {
			bound = "unbounded"
		}
		fmt.Fprintf(&b, "chain %-14s bound %-9s (compute %d + comms %d) deadline %-6d %s\n",
			c.Name, bound, c.TaskPart, c.CommsPart, c.Deadline, status)
	}
	fmt.Fprintf(&b, "system feasible: %v\n", r.Feasible)
	return b.String()
}

// Validate checks structural consistency: chain indices in range,
// streams connecting the right nodes, matching lengths.
func (sys *System) Validate() error {
	if sys.Set == nil {
		return fmt.Errorf("e2e: nil stream set")
	}
	if err := sys.Set.Validate(); err != nil {
		return err
	}
	for _, c := range sys.Chains {
		if len(c.Tasks) < 1 {
			return fmt.Errorf("e2e: chain %q has no tasks", c.Name)
		}
		if len(c.Streams) != len(c.Tasks)-1 {
			return fmt.Errorf("e2e: chain %q has %d streams for %d tasks", c.Name, len(c.Streams), len(c.Tasks))
		}
		if c.Deadline < 1 {
			return fmt.Errorf("e2e: chain %q has non-positive deadline", c.Name)
		}
		for _, ti := range c.Tasks {
			if ti < 0 || ti >= len(sys.Tasks) {
				return fmt.Errorf("e2e: chain %q references task %d", c.Name, ti)
			}
		}
		for i, sid := range c.Streams {
			s := sys.Set.Get(sid)
			if s == nil {
				return fmt.Errorf("e2e: chain %q references stream %d", c.Name, sid)
			}
			from := sys.Tasks[c.Tasks[i]]
			to := sys.Tasks[c.Tasks[i+1]]
			if s.Src != from.Node || s.Dst != to.Node {
				return fmt.Errorf("e2e: chain %q: stream %d runs %d->%d but tasks sit on %d->%d",
					c.Name, sid, s.Src, s.Dst, from.Node, to.Node)
			}
		}
	}
	return nil
}

// Analyze computes every task response time, every stream bound, and
// every chain's end-to-end bound.
func (sys *System) Analyze() (*Report, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	analyzer, err := core.NewAnalyzer(sys.Set)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		TaskR:    make([]int, len(sys.Tasks)),
		StreamU:  make([]int, sys.Set.Len()),
		Feasible: true,
	}
	for i := range sys.Tasks {
		if rep.TaskR[i], err = sys.TaskResponseTime(i); err != nil {
			return nil, err
		}
	}
	calc := analyzer.NewCalc()
	for _, s := range sys.Set.Streams {
		if rep.StreamU[s.ID], err = calc.CalUSearchCap(s.ID, 1<<16); err != nil {
			return nil, err
		}
	}
	for _, c := range sys.Chains {
		v := ChainVerdict{Name: c.Name, Deadline: c.Deadline}
		ok := true
		for _, ti := range c.Tasks {
			if rep.TaskR[ti] < 0 {
				ok = false
				break
			}
			v.TaskPart += rep.TaskR[ti]
		}
		for _, sid := range c.Streams {
			if rep.StreamU[sid] < 0 {
				ok = false
				break
			}
			v.CommsPart += rep.StreamU[sid]
		}
		if ok {
			v.Bound = v.TaskPart + v.CommsPart
			v.Feasible = v.Bound <= c.Deadline
		} else {
			v.Bound = -1
		}
		if !v.Feasible {
			rep.Feasible = false
		}
		rep.Chains = append(rep.Chains, v)
	}
	return rep, nil
}
