package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crosscheck"
)

func TestParsePattern(t *testing.T) {
	for _, name := range []string{"uniform", "transpose", "bit-reversal", "hotspot", "nearest-neighbor"} {
		p, err := parsePattern(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != name {
			t.Fatalf("%s -> %s", name, p)
		}
	}
	if _, err := parsePattern("bogus"); err == nil {
		t.Fatal("accepted bogus pattern")
	}
}

// status runs the command with args and returns its exit status and
// standard output.
func status(args ...string) (int, string) {
	var out strings.Builder
	return run(args, &out, io.Discard), out.String()
}

func TestRunSingleTable(t *testing.T) {
	code, out := status("tables", "-table", "3", "-trials", "1", "-cycles", "5000", "-seed", "7")
	if code != 0 || !strings.HasPrefix(out, "Table 3:") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestRunRule(t *testing.T) {
	code, out := status("tables", "-rule", "-streams", "8", "-maxlevels", "3", "-target", "0.5", "-cycles", "3000", "-seed", "5")
	if code != 0 || !strings.HasPrefix(out, "|M| = 8 streams") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"tables", "-table", "nope", "-cycles", "1000"}, 1},
		{[]string{"tables", "-table", "9", "-cycles", "1000"}, 1},
		{[]string{"tables", "-table", "1", "-cycles", "1000", "-pattern", "bogus"}, 1},
		{[]string{"figures", "-fig", "bogus"}, 1},
		{[]string{"bogus"}, 2},
		{[]string{"tables", "-bogus"}, 2},
		{[]string{"crosscheck", "stray"}, 2},
	} {
		if code, _ := status(c.args...); code != c.want {
			t.Errorf("%q: exit %d, want %d", c.args, code, c.want)
		}
	}
}

func TestRunCSV(t *testing.T) {
	code, out := status("tables", "-table", "1", "-trials", "1", "-cycles", "3000", "-seed", "7", "-csv")
	if code != 0 || !strings.HasPrefix(out, "# Table 1: 1 priority level, 20 message streams, trial 0\n") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestPick(t *testing.T) {
	if pick(0, 42) != 42 || pick(7, 42) != 7 {
		t.Fatal("pick wrong")
	}
}

func TestRunAllFigures(t *testing.T) {
	code, out := status("figures", "-fig", "all", "-cycles", "3000")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// "all" is ordered as out/figures.txt: the worked example first.
	var want strings.Builder
	if _, err := runFigures(&want, "example", 3000); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, want.String()+"\n") {
		t.Fatalf("figures -fig all does not open with the worked example:\n%s", out)
	}
}

func TestWriteSVGs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "svg")
	if err := writeSVGs(dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"figure4.svg", "figure6.svg", "figure7.svg", "figure9.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 1000 {
			t.Fatalf("%s suspiciously small (%d bytes)", name, len(data))
		}
	}
}

// TestCrosscheckGate pins the correctness gate both the full
// reproduction and the crosscheck subcommand end on: a violation with
// no same-priority overlap is a genuine analysis defect and exits 2,
// while sharing-explained violations pass.
func TestCrosscheckGate(t *testing.T) {
	benign := &crosscheck.Report{Violations: []crosscheck.Violation{{SamePriorityOverlaps: 2}}}
	if err := gate(benign); err != nil {
		t.Fatalf("sharing-explained violation failed the gate: %v", err)
	}
	if err := gate(&crosscheck.Report{}); err != nil {
		t.Fatalf("clean report failed the gate: %v", err)
	}
	genuine := &crosscheck.Report{Violations: []crosscheck.Violation{{SamePriorityOverlaps: 2}, {SamePriorityOverlaps: 0}}}
	if code := exitStatus(gate(genuine), io.Discard); code != 2 {
		t.Fatalf("genuine violation exits %d, want 2", code)
	}
}
