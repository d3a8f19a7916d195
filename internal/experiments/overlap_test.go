package experiments

import (
	"strings"
	"testing"
)

// TestOverlapJudgeQuick: the overlap judge must produce finite rows for
// every profile and clear the acceptance bar (the pipelined schedule
// beats the sequential one on at least three profiles).
func TestOverlapJudgeQuick(t *testing.T) {
	rep, tbl, err := OverlapJudge(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want one per modelzoo profile", len(rep.Rows))
	}
	wins := 0
	for _, r := range rep.Rows {
		if r.Win {
			wins++
			if r.OverlapStepSec >= r.SeqStepSec {
				t.Errorf("%s: marked Win but overlap %.4f >= seq %.4f",
					r.Model, r.OverlapStepSec, r.SeqStepSec)
			}
		}
		if r.Buckets <= 0 || r.Buckets > r.Layers {
			t.Errorf("%s: %d buckets for %d layers", r.Model, r.Buckets, r.Layers)
		}
		if r.HiddenFrac <= 0 {
			t.Errorf("%s: hidden fraction %.3f, want > 0", r.Model, r.HiddenFrac)
		}
	}
	if wins < 3 {
		t.Fatalf("pipelined schedule wins on %d profiles, acceptance needs >= 3", wins)
	}
	if !strings.Contains(tbl.String(), "BERT") {
		t.Fatalf("table missing profiles:\n%s", tbl)
	}
}
