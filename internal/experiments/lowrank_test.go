package experiments

import (
	"strings"
	"testing"
)

// TestLowRankJudgeQuick: the family-vs-COMPSO judge must produce finite
// rows for every profile and clear the acceptance bar (the planned mix
// beats all-COMPSO on CR at equal-or-better simulated step time on at
// least two profiles), plus a sane convergence leg.
func TestLowRankJudgeQuick(t *testing.T) {
	rep, tbl, err := LowRankJudge(true)
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
			if r.MixCR <= r.CompsoCR || r.MixStepSec > r.CompsoStepSec {
				t.Errorf("%s: marked Win but CR %.1f<=%.1f or step %.4f>%.4f",
					r.Model, r.MixCR, r.CompsoCR, r.MixStepSec, r.CompsoStepSec)
			}
		}
		if r.LowRankLayers <= 0 || r.LowRankLayers > r.Layers {
			t.Errorf("%s: %d/%d low-rank layers", r.Model, r.LowRankLayers, r.Layers)
		}
	}
	if wins < 2 {
		t.Fatalf("mix wins on %d profiles, acceptance needs >= 2", wins)
	}
	if !strings.Contains(tbl.String(), "BERT") {
		t.Fatalf("table missing profiles:\n%s", tbl)
	}
}
