package explore

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/sim"
	"repro/internal/stream"
)

// validateSpace is the explore-smoke 8-point grid (topology × VCs ×
// buffer) whose fully-admitting points exercise simulator validation.
func validateSpace() Space {
	return Space{
		Topologies: []string{"mesh2d-10x10", "ring-4"},
		Routings:   []string{RoutingCanonical},
		VCs:        []int{1, 4},
		Buffers:    []int{1, 2},
		Policies:   []string{PolicyWorkload},
	}
}

func validateWorkload(t *testing.T) Workload {
	t.Helper()
	w, err := PaperPool(12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSweepEngineEquivalence validates the smoke grid under both
// engines and requires identical point results — the explorer-facing
// face of the sim differential guarantee.
func TestSweepEngineEquivalence(t *testing.T) {
	w := validateWorkload(t)
	var runs [][]byte
	for _, engine := range []string{mc.EngineCycle, mc.EngineEvent} {
		res, err := Sweep(w, validateSpace(), SweepConfig{
			Seed: 1, Eval: EvalConfig{Validate: true, ValidateCycles: 3000, Engine: engine},
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		validated := 0
		for i := range res.Points {
			if res.Points[i].Validated {
				validated++
			}
		}
		if validated == 0 {
			t.Fatalf("%s: no point was validated", engine)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, b)
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("event-engine sweep differs from cycle-engine sweep")
	}
}

// TestSweepValidateErrorStaysInPoint injects a failing engine and
// checks the sweep completes with the error recorded on the point
// instead of aborting the study.
func TestSweepValidateErrorStaysInPoint(t *testing.T) {
	orig := runEngine
	runEngine = func(engine string, set *stream.Set, cfg sim.Config) (*sim.Result, error) {
		return nil, errors.New("injected engine failure")
	}
	defer func() { runEngine = orig }()

	w := validateWorkload(t)
	res, err := Sweep(w, validateSpace(), SweepConfig{
		Seed: 1, Eval: EvalConfig{Validate: true, ValidateCycles: 3000},
	})
	if err != nil {
		t.Fatalf("sweep aborted on a validation error: %v", err)
	}
	failed := 0
	for i := range res.Points {
		p := &res.Points[i]
		if !p.FullyAdmitted {
			if p.ValidateError != "" {
				t.Fatalf("point %d not fully admitted but has validate error %q", p.Index, p.ValidateError)
			}
			continue
		}
		failed++
		if !strings.Contains(p.ValidateError, "injected engine failure") {
			t.Fatalf("point %d missing injected error: %+v", p.Index, p)
		}
		if p.Validated || p.Admitting {
			t.Fatalf("point %d counted as validated/admitting despite the failure: %+v", p.Index, p)
		}
	}
	if failed == 0 {
		t.Fatal("no fully-admitting point hit the injected failure")
	}

	// The error travels into the CSV artifact too.
	csv, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "validateError") || !strings.Contains(string(csv), "injected engine failure") {
		t.Fatal("CSV output missing the validate error column or value")
	}
}
