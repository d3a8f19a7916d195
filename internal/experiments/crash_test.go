package experiments

import "testing"

// TestCrashRecoverySweep checks the analytic leg's shape: every profile
// gets the full interval grid, exactly one grid minimum, a sane Young
// optimum, and strictly positive overhead everywhere.
func TestCrashRecoverySweep(t *testing.T) {
	rows, tb := CrashRecoverySweep()
	perModel := map[string][]CrashRow{}
	for _, r := range rows {
		perModel[r.Model] = append(perModel[r.Model], r)
	}
	if len(perModel) == 0 {
		t.Fatal("sweep produced no models")
	}
	for model, rs := range perModel {
		if len(rs) != len(crashSweepIntervals) {
			t.Fatalf("%s: got %d intervals, want %d", model, len(rs), len(crashSweepIntervals))
		}
		best := 0
		for _, r := range rs {
			if r.Best {
				best++
			}
			if r.OverheadSecPer1k <= 0 || r.SaveSecPer1k <= 0 || r.LostSecPerCrash <= 0 {
				t.Fatalf("%s interval %d: non-positive costs: %+v", model, r.IntervalSteps, r)
			}
			if r.YoungSteps < 1 {
				t.Fatalf("%s: Young optimum below one step: %+v", model, r)
			}
			if r.CkptMB <= 0 {
				t.Fatalf("%s: empty checkpoint: %+v", model, r)
			}
		}
		if best != 1 {
			t.Fatalf("%s: %d rows marked best, want exactly 1", model, best)
		}
	}
	if tb == nil || len(tb.Rows) != len(rows) {
		t.Fatal("table rendering missing rows")
	}
}

// TestCrashMeasuredRun exercises the measured leg end to end: a real
// crash-and-restore on the proxy cluster that must reproduce its
// uninterrupted twin bit-exactly.
func TestCrashMeasuredRun(t *testing.T) {
	m, err := CrashMeasuredRun(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Restarts != 1 {
		t.Fatalf("got %d restarts, want 1", m.Restarts)
	}
	if m.Restores < 1 || m.Saves <= 0 {
		t.Fatalf("recovery did not use checkpoints: %+v", m)
	}
	if !m.BitIdentical {
		t.Fatalf("recovered run not bit-identical: %+v", m)
	}
	if m.CkptBytes <= 0 {
		t.Fatalf("no checkpoint bytes recorded: %+v", m)
	}
	if m.RecoverySec <= 0 {
		t.Fatalf("lost work not priced: RecoverySec=%g", m.RecoverySec)
	}
}
