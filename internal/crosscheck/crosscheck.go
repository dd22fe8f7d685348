// Package crosscheck systematically validates the delay-upper-bound
// analysis against the flit-level simulator: random workloads are
// generated, every stream's bound computed, the network simulated, and
// every observed latency compared against its bound. Violations are
// reported with a diagnosis — in particular the number of same-priority
// streams sharing the victim's path, since head-of-line blocking on a
// shared virtual channel is the one mechanism the paper's model does
// not charge (see EXPERIMENTS.md).
package crosscheck

import (
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Config parameterises a cross-check campaign.
type Config struct {
	Trials  int // independent random workloads (default 10)
	Streams int // streams per workload (default 20)
	PLevels int // priority levels (default 4)
	Seed    int64
	Cycles  int // simulated flit times per trial (default 30000)
	Warmup  int // default 200
	UCap    int // bound search cap (default 1<<16)
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.Streams == 0 {
		c.Streams = 20
	}
	if c.PLevels == 0 {
		c.PLevels = 4
	}
	if c.Cycles == 0 {
		c.Cycles = 30000
	}
	if c.Warmup == 0 {
		c.Warmup = 200
	}
	if c.UCap == 0 {
		c.UCap = 1 << 16
	}
	return c
}

// Violation is one stream whose observed maximum latency exceeded its
// delay upper bound.
type Violation struct {
	Trial      int
	Seed       int64
	Stream     stream.ID
	Priority   int
	U          int
	MaxLatency int
	// SamePriorityOverlaps counts other streams at the same priority
	// whose paths share a channel with the victim — the head-of-line
	// hazard the analysis does not model.
	SamePriorityOverlaps int
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("trial %d (seed %d): M%d (priority %d) measured %d > U %d; %d same-priority overlapping streams",
		v.Trial, v.Seed, v.Stream, v.Priority, v.MaxLatency, v.U, v.SamePriorityOverlaps)
}

// Report is the outcome of a campaign.
type Report struct {
	Config     Config
	Trials     int
	Checked    int // streams with a bound and observations
	Violations []Violation
	WorstRatio float64 // max over all checked streams of max-latency/U
}

// Clean reports whether no violations were found.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Format renders the campaign summary.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crosscheck: %d trials x %d streams (%d levels), %d flit times each\n",
		r.Trials, r.Config.Streams, r.Config.PLevels, r.Config.Cycles)
	fmt.Fprintf(&b, "checked %d stream-bounds; worst max/U ratio %.3f; %d violations\n",
		r.Checked, r.WorstRatio, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v.String())
	}
	if r.Clean() {
		b.WriteString("every observed latency within its bound\n")
	} else {
		b.WriteString("note: all violations stem from same-priority VC sharing (head-of-line\n" +
			"blocking), which the paper's model does not charge; they vanish with one\n" +
			"VC per contending stream — see EXPERIMENTS.md\n")
	}
	return b.String()
}

// Run executes the campaign. Trials are independent (one seed each)
// and all run concurrently; the report lists them in trial order.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	trials, err := grid.Map(cfg.Trials, cfg.Trials, func(trial int) (*Report, error) {
		rep, err := runTrial(cfg, trial)
		if err != nil {
			return nil, fmt.Errorf("crosscheck: trial %d: %w", trial, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Config: cfg, Trials: cfg.Trials}
	for _, t := range trials {
		rep.Checked += t.Checked
		rep.WorstRatio = max(rep.WorstRatio, t.WorstRatio)
		rep.Violations = append(rep.Violations, t.Violations...)
	}
	return rep, nil
}

// runTrial checks one generated workload, returning its tally as a
// one-trial report.
func runTrial(cfg Config, trial int) (*Report, error) {
	rep := &Report{}
	seed := cfg.Seed + int64(trial)*104729
	wcfg := workload.PaperDefaults(cfg.Streams, cfg.PLevels, seed)
	wcfg.InflatePeriods = false
	set, analyzer, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	us, res, err := exp.BoundAndSimulate(analyzer, cfg.UCap, sim.Config{Cycles: cfg.Cycles, Warmup: cfg.Warmup})
	if err != nil {
		return nil, err
	}
	for i := range res.PerStream {
		st := &res.PerStream[i]
		if us[i] <= 0 || st.Observed == 0 {
			continue
		}
		rep.Checked++
		rep.WorstRatio = max(rep.WorstRatio, float64(st.MaxLatency)/float64(us[i]))
		if st.MaxLatency > us[i] {
			victim := set.Get(stream.ID(i))
			overlaps := 0
			for _, o := range set.Streams {
				if o.ID != victim.ID && o.Priority == victim.Priority && o.Path.Overlaps(victim.Path) {
					overlaps++
				}
			}
			rep.Violations = append(rep.Violations, Violation{
				Trial: trial, Seed: seed,
				Stream: victim.ID, Priority: victim.Priority,
				U: us[i], MaxLatency: st.MaxLatency,
				SamePriorityOverlaps: overlaps,
			})
		}
	}
	return rep, nil
}
