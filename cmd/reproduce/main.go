// Command reproduce regenerates the paper's evaluation. Without a
// subcommand it runs everything and writes the artifacts into a
// directory:
//
//	reproduce [-out out] [-trials 3] [-cycles 30000] [-quick]
//
//	out/tables.txt       Tables 1-5 (ratio actual/U per priority level)
//	out/figures.txt      the §4.4 worked example, Figures 2, 4 and 6
//	out/figure*.svg      timing diagrams as SVG
//	out/rule.txt         the |M|/4 priority-level sweeps
//	out/crosscheck.txt   differential validation of analysis vs simulator
//	out/report.txt       one-page summary with the headline comparisons
//	out/report.json      the same summary, machine readable
//
// -quick reduces trial counts and simulated time for a fast smoke run.
// The subcommands regenerate one part and print it:
//
//	reproduce tables [-table all|1-5] [-trials 3] [-cycles 30000] [-seed S] [-pattern P] [-csv]
//	reproduce tables -rule [-streams 20] [-maxlevels 12] [-target 0.9]
//	reproduce figures [-fig all|2|4|6|example] [-cycles 10000] [-svgdir DIR]
//	reproduce crosscheck [-trials 10] [-streams 20] [-levels 4] [-cycles 30000] [-seed 1]
//
// The exit status is 0 on success, 1 on an error, and 2 on a usage
// error or when the crosscheck finds a bound violation NOT attributable
// to same-priority virtual-channel sharing (a genuine analysis defect);
// known-benign sharing violations exit 0 but are listed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/crosscheck"
	"repro/internal/exp"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var (
	errUsage   = errors.New("usage")
	errGenuine = errors.New("crosscheck: genuine analysis violation found")
)

// run is main minus os.Exit: it dispatches to the subcommand named by
// the first argument (none: the full reproduction) and maps the result
// to the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func([]string, io.Writer) error{
		"":           reproduce,
		"tables":     tables,
		"figures":    figures,
		"crosscheck": crosscheckCmd,
	}
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	var err error
	if cmd, ok := cmds[name]; ok {
		err = cmd(args, stdout)
	} else {
		err = fmt.Errorf("%w: unknown subcommand %q (want tables, figures or crosscheck)", errUsage, name)
	}
	return exitStatus(err, stderr)
}

// exitStatus reports a subcommand's error on stderr and maps it to the
// exit status.
func exitStatus(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "reproduce: %v\n", err)
	if errors.Is(err, errUsage) || errors.Is(err, errGenuine) {
		return 2
	}
	return 1
}

// parse parses a subcommand's flags; a bad flag or a stray argument is
// a usage error.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return err
	case err != nil:
		return fmt.Errorf("%w: %v", errUsage, err)
	case fs.NArg() > 0:
		return fmt.Errorf("%w: unexpected arguments %q", errUsage, fs.Args())
	}
	return nil
}

// The flags several subcommands share, declared once; only their
// defaults differ per subcommand.
func trialsFlag(fs *flag.FlagSet, def int) *int {
	return fs.Int("trials", def, "independent random workloads per experiment")
}

func cyclesFlag(fs *flag.FlagSet, def int) *int {
	return fs.Int("cycles", def, "simulated flit times per run")
}

func streamsFlag(fs *flag.FlagSet) *int {
	return fs.Int("streams", 20, "streams per workload")
}

func seedFlag(fs *flag.FlagSet, def int64) *int64 {
	return fs.Int64("seed", def, "base seed (tables: 0 keeps each table's own, 42 for -rule)")
}

// reproduce runs every part of the evaluation and writes the artifacts
// and the summary into the output directory.
func reproduce(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	dir := fs.String("out", "out", "output directory")
	trials := trialsFlag(fs, 3)
	cycles := cyclesFlag(fs, 30000)
	quick := fs.Bool("quick", false, "fast smoke run (fewer trials, shorter simulations)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: reproduce [flags] | reproduce <tables|figures|crosscheck> [flags]")
		fs.PrintDefaults()
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	if *quick {
		*trials, *cycles = 1, 10000
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		path := filepath.Join(*dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return nil
	}
	var summary, text strings.Builder
	summary.WriteString("Reproduction summary — A Real-Time Communication Method for Wormhole Switching Networks (ICPP 1998)\n\n")

	figs, err := runFigures(&text, "all", *cycles)
	if err != nil {
		return err
	}
	if err := write("figures.txt", text.String()); err != nil {
		return err
	}
	worked, fig2, fig4, fig6 := figs[0].Values, figs[1].Values, figs[2].Values, figs[3].Values
	fmt.Fprintf(&summary, "worked example: U = (%d, %d, %d, %d, %d); paper (7, 8, 26, -, 33)\n",
		worked["U0"], worked["U1"], worked["U2"], worked["U3"], worked["U4"])
	fmt.Fprintf(&summary, "figure 4: U = %d (paper 26); figure 6: U = %d (paper 22)\n", fig4["U"], fig6["U"])
	fmt.Fprintf(&summary, "figure 2 priority inversion: non-preemptive max %d vs preemptive max %d (unloaded %d)\n\n",
		fig2["nonpreemptiveMax"], fig2["preemptiveMax"], fig2["unloaded"])
	if err := writeSVGs(*dir, stdout); err != nil {
		return err
	}

	text.Reset()
	results, err := runTables(&text, []int{1, 2, 3, 4, 5}, *trials, *cycles, 0, workload.Uniform, false)
	if err != nil {
		return err
	}
	if err := write("tables.txt", text.String()); err != nil {
		return err
	}
	var tableTops []float64
	for i, res := range results {
		tableTops = append(tableTops, res.TopRatio())
		fmt.Fprintf(&summary, "table %d: top-level mean ratio %.3f, bottom %.3f\n", i+1, res.TopRatio(), res.BottomRatio())
	}
	summary.WriteString("\n")

	text.Reset()
	for _, streams := range []int{20, 60} {
		sweep, err := ruleSweep(&text, streams, 0.9, streams/4+3, 42, *cycles)
		if err != nil {
			return err
		}
		fmt.Fprintf(&summary, "rule sweep |M|=%d: 0.9 first crossed at %d levels (paper: |M|/4 = %d suffices)\n",
			streams, sweep.MinLevels, streams/4)
	}
	if err := write("rule.txt", text.String()); err != nil {
		return err
	}
	summary.WriteString("\n")

	cc, err := crosscheck.Run(crosscheck.Config{Trials: *trials * 3, Cycles: *cycles, Seed: 7})
	if err != nil {
		return err
	}
	if err := write("crosscheck.txt", cc.Format()); err != nil {
		return err
	}
	// A genuine violation still writes every artifact before failing.
	gateErr := gate(cc)
	fmt.Fprintf(&summary, "crosscheck: %d bounds checked, %d violations (all same-priority VC sharing: %v)\n",
		cc.Checked, len(cc.Violations), gateErr == nil)
	if err := write("report.txt", summary.String()); err != nil {
		return err
	}
	js, err := json.MarshalIndent(machineSummary{
		Paper:            "A Real-Time Communication Method for Wormhole Switching Networks (ICPP 1998)",
		WorkedExampleU:   []int{worked["U0"], worked["U1"], worked["U2"], worked["U3"], worked["U4"]},
		Figure4U:         fig4["U"],
		Figure6U:         fig6["U"],
		Fig2Nonpreempt:   fig2["nonpreemptiveMax"],
		Fig2Preempt:      fig2["preemptiveMax"],
		TableTopRatios:   tableTops,
		CrosscheckChecks: cc.Checked,
		CrosscheckViol:   len(cc.Violations),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := write("report.json", string(js)+"\n"); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n"+summary.String())
	return gateErr
}

// machineSummary is the JSON shape of out/report.json.
type machineSummary struct {
	Paper            string    `json:"paper"`
	WorkedExampleU   []int     `json:"workedExampleU"`
	Figure4U         int       `json:"figure4U"`
	Figure6U         int       `json:"figure6U"`
	Fig2Nonpreempt   int       `json:"figure2NonpreemptiveMax"`
	Fig2Preempt      int       `json:"figure2PreemptiveMax"`
	TableTopRatios   []float64 `json:"tableTopRatios"`
	CrosscheckChecks int       `json:"crosscheckChecked"`
	CrosscheckViol   int       `json:"crosscheckViolations"`
}

// tables regenerates the paper's ratio tables (§5) or, with -rule, the
// |M|/4 priority-level sweep. Each table reports, per priority level,
// the ratio between simulated message latencies and the computed delay
// upper bounds.
func tables(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reproduce tables", flag.ContinueOnError)
	table := fs.String("table", "all", "paper table number (1-5) or 'all'")
	rule := fs.Bool("rule", false, "run the |M|/4 priority-level rule sweep instead of tables")
	streams := streamsFlag(fs)
	maxLevels := fs.Int("maxlevels", 12, "maximum priority levels for -rule")
	target := fs.Float64("target", 0.9, "top-level ratio target for -rule")
	trials := trialsFlag(fs, 3)
	cycles := cyclesFlag(fs, 30000)
	seed := seedFlag(fs, 0)
	pattern := fs.String("pattern", "uniform", "traffic pattern: uniform, transpose, bit-reversal, hotspot, nearest-neighbor")
	csv := fs.Bool("csv", false, "emit per-stream CSV rows instead of the formatted table")
	if err := parse(fs, args); err != nil {
		return err
	}
	pat, err := parsePattern(*pattern)
	if err != nil {
		return err
	}
	if *rule {
		_, err := ruleSweep(stdout, *streams, *target, *maxLevels, pick(*seed, 42), *cycles)
		return err
	}
	nums := []int{1, 2, 3, 4, 5}
	if *table != "all" {
		n, err := strconv.Atoi(*table)
		if err != nil {
			return fmt.Errorf("bad -table %q", *table)
		}
		nums = []int{n}
	}
	_, err = runTables(stdout, nums, *trials, *cycles, *seed, pat, *csv)
	return err
}

func parsePattern(s string) (workload.Pattern, error) {
	for _, p := range []workload.Pattern{workload.Uniform, workload.Transpose, workload.BitReversal, workload.Hotspot, workload.NearestNeighbor} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown pattern %q", s)
}

func pick(v, def int64) int64 {
	if v != 0 {
		return v
	}
	return def
}

// runTables runs paper tables nums and writes each one formatted, or
// as per-trial CSV rows when csv is set. seed 0 keeps every table's own
// base seed.
func runTables(w io.Writer, nums []int, trials, cycles int, seed int64, pat workload.Pattern, csv bool) ([]*exp.TableResult, error) {
	var out []*exp.TableResult
	for _, n := range nums {
		spec, err := exp.PaperTable(n)
		if err != nil {
			return nil, err
		}
		spec.Trials, spec.Cycles, spec.Pattern = trials, cycles, pat
		if pat != workload.Uniform {
			spec.Name += " [" + pat.String() + " traffic]"
		}
		if seed != 0 {
			spec.Seed = seed
		}
		res, err := exp.RunTable(spec)
		if err != nil {
			return nil, err
		}
		if csv {
			for trial, t := range res.Trials {
				fmt.Fprintf(w, "# %s, trial %d\n%s", spec.Name, trial, t.CSV())
			}
		} else {
			fmt.Fprintln(w, res.Format())
		}
		out = append(out, res)
	}
	return out, nil
}

// ruleSweep runs one |M|/4 sweep and writes it.
func ruleSweep(w io.Writer, streams int, target float64, maxLevels int, seed int64, cycles int) (*exp.RuleSweepResult, error) {
	res, err := exp.RunRuleSweep(streams, target, maxLevels, seed, cycles)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, res.Format())
	return res, nil
}

// figures regenerates the paper's figure examples and optionally
// renders the timing diagrams as SVG.
func figures(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reproduce figures", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 2, 4, 6, example, all")
	cycles := cyclesFlag(fs, 10000)
	svgDir := fs.String("svgdir", "", "also write the timing diagrams as SVG files into this directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	if _, err := runFigures(stdout, *fig, *cycles); err != nil {
		return err
	}
	if *svgDir == "" {
		return nil
	}
	return writeSVGs(*svgDir, stdout)
}

// runFigures regenerates the named figure — "all" is the §4.4 worked
// example, then Figures 2, 4 and 6 — and writes the bodies separated by
// blank lines. cycles is Figure 2's simulated time.
func runFigures(w io.Writer, fig string, cycles int) ([]*exp.FigureReport, error) {
	gens := map[string]func() (*exp.FigureReport, error){
		"example": exp.WorkedExample,
		"2":       func() (*exp.FigureReport, error) { return exp.Figure2(cycles) },
		"4":       exp.Figure4,
		"6":       exp.Figure6,
	}
	names := []string{fig}
	if fig == "all" {
		names = []string{"example", "2", "4", "6"}
	}
	var reps []*exp.FigureReport
	for i, name := range names {
		gen, ok := gens[name]
		if !ok {
			return nil, fmt.Errorf("unknown figure %q (want 2, 4, 6, example, all)", name)
		}
		rep, err := gen()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, rep.Body)
		reps = append(reps, rep)
	}
	return reps, nil
}

// writeSVGs renders the four timing diagrams as standalone SVGs in dir.
func writeSVGs(dir string, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d4, err := exp.Figure4Diagram()
	if err != nil {
		return err
	}
	d6, err := exp.Figure6Diagram()
	if err != nil {
		return err
	}
	initial, final, err := exp.WorkedExampleDiagrams()
	if err != nil {
		return err
	}
	for _, f := range []struct{ name, svg string }{
		{"figure4.svg", viz.TimingDiagramSVG(d4, "Figure 4 — direct blocking (U = 26)", 0)},
		{"figure6.svg", viz.TimingDiagramSVG(d6, "Figure 6 — indirect blocking (U = 22)", 0)},
		{"figure7.svg", viz.TimingDiagramSVG(initial, "Figure 7 — initial HP_4 diagram", 0)},
		{"figure9.svg", viz.TimingDiagramSVG(final, "Figure 9 — final HP_4 diagram (U_4 = 33)", 0)},
	} {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, []byte(f.svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}

// crosscheckCmd differentially validates the delay-upper-bound
// analysis against the flit-level simulator over random workloads:
// every stream's observed maximum latency is compared to its bound.
func crosscheckCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reproduce crosscheck", flag.ContinueOnError)
	trials := trialsFlag(fs, 10)
	streams := streamsFlag(fs)
	levels := fs.Int("levels", 4, "priority levels")
	cycles := cyclesFlag(fs, 30000)
	seed := seedFlag(fs, 1)
	if err := parse(fs, args); err != nil {
		return err
	}
	rep, err := crosscheck.Run(crosscheck.Config{
		Trials: *trials, Streams: *streams, PLevels: *levels,
		Cycles: *cycles, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Format())
	return gate(rep)
}

// gate is the crosscheck's correctness verdict: errGenuine when some
// violation is not explained by same-priority VC sharing, the one
// mechanism the paper's model does not charge.
func gate(rep *crosscheck.Report) error {
	for _, v := range rep.Violations {
		if v.SamePriorityOverlaps == 0 {
			return errGenuine
		}
	}
	return nil
}
