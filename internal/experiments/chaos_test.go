package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"compso/internal/obs"
)

// TestChaosMatrix runs the fault matrix at a tiny budget and checks the
// shape of its report: a clean baseline, fault scenarios that tally
// recovery events, and a schema-valid combined trace.
func TestChaosMatrix(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "chaos-trace.json")
	rows, tb, err := ChaosMatrix(4, tracePath, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d scenarios, want 7", len(rows))
	}
	byName := map[string]ChaosRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	base := byName["baseline"]
	if base.Corrupted+base.Retries+base.Fallbacks+base.Retunes != 0 {
		t.Fatalf("baseline tallied fault events: %+v", base)
	}
	if byName["corruption"].Corrupted == 0 {
		t.Fatalf("corruption scenario saw no corrupted blobs: %+v", byName["corruption"])
	}
	comb := byName["combined"]
	if comb.Corrupted == 0 {
		t.Fatalf("combined scenario saw no corrupted blobs: %+v", comb)
	}
	if comb.CommSec <= base.CommSec {
		t.Fatalf("combined faults did not slow communication: %g vs baseline %g", comb.CommSec, base.CommSec)
	}
	if cs := byName["crash-single"]; cs.WorkerCrashes != 1 || cs.Restores != 1 {
		t.Fatalf("crash-single should lose and restore one worker: %+v", cs)
	}
	if cr := byName["crash-repeat"]; cr.WorkerCrashes != 2 || cr.Restores != 2 {
		t.Fatalf("crash-repeat should crash twice and restore twice: %+v", cr)
	}
	if cs := byName["crash-single"]; cs.CommSec <= base.CommSec {
		t.Fatalf("lost work did not show up in accumulated comm time: %g vs baseline %g", cs.CommSec, base.CommSec)
	}
	if tb == nil || len(tb.Rows) != 7 {
		t.Fatal("table rendering missing rows")
	}
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(blob); err != nil {
		t.Fatalf("combined trace invalid: %v", err)
	}
}
