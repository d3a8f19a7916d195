package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/modelzoo"
)

// fig7Rows and fig9Rows compute Figures 7 and 9 once for the tests that
// assert on them, TestHeadline included.
var (
	fig7Rows = sync.OnceValues(func() ([]Fig7Row, error) {
		rows, _, err := Figure7()
		return rows, err
	})
	fig9Rows = sync.OnceValues(func() ([]Fig9Row, error) {
		rows, _, err := Figure9()
		return rows, err
	})
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "t", Headers: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tb.String()
	if !strings.Contains(s, "== t ==") || !strings.Contains(s, "bb") {
		t.Fatalf("rendering:\n%s", s)
	}
}

func TestMeasureCRCompsoBeatsAccuracyPreservingBaselines(t *testing.T) {
	// The headline: COMPSO's CR (~22x in the paper) must exceed the
	// accuracy-preserving baselines (QSGD-8bit, SZ-4E-3) on every model.
	for _, p := range modelzoo.All() {
		compsoCR, err := MeasureCR(p, compso.NewCompressor(nil, 0, 1), 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		qsgdCR, err := MeasureCR(p, compress.NewQSGD(8, 2), 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		szCR, err := MeasureCR(p, compress.NewSZ(4e-3), 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		if compsoCR <= qsgdCR || compsoCR <= szCR {
			t.Errorf("%s: COMPSO %.1f vs QSGD8 %.1f, SZ4e-3 %.1f", p.Name, compsoCR, qsgdCR, szCR)
		}
		if compsoCR < 12 || compsoCR > 40 {
			t.Errorf("%s: COMPSO CR %.1f outside the paper's ballpark (~20x)", p.Name, compsoCR)
		}
	}
}

func TestFigure1AllgatherDominatesAndGrows(t *testing.T) {
	rows, tb := Figure1()
	if len(rows) != 12 || len(tb.Rows) != 12 {
		t.Fatalf("Figure 1 produced %d rows", len(rows))
	}
	byModel := map[string][]Breakdown{}
	for _, r := range rows {
		byModel[r.Model] = append(byModel[r.Model], r)
	}
	for model, rs := range byModel {
		for _, r := range rs {
			pct := r.Percent()
			// The paper's headline: broadcast/all-gather communication is
			// at least 30% of the iteration.
			if pct[0] < 25 {
				t.Errorf("%s @%d nodes: allgather %.1f%%, want >= 25%%", model, r.Nodes, pct[0])
			}
			if pct[0] < pct[1] {
				t.Errorf("%s @%d nodes: allreduce %.1f%% above allgather %.1f%%", model, r.Nodes, pct[1], pct[0])
			}
		}
		// The share grows with node count (Figure 1's trend).
		if rs[0].Percent()[0] >= rs[2].Percent()[0] {
			t.Errorf("%s: allgather share did not grow: %.1f%% -> %.1f%%",
				model, rs[0].Percent()[0], rs[2].Percent()[0])
		}
	}
}

func TestFigure5RoundingShapes(t *testing.T) {
	results, _ := Figure5()
	if len(results) != 6 {
		t.Fatalf("Figure 5 produced %d results", len(results))
	}
	for _, r := range results {
		switch r.Mode.String() {
		case "SR":
			if r.Triangularity < 0.7 {
				t.Errorf("SR %s triangularity %.2f, want >= 0.7", r.LayerType, r.Triangularity)
			}
		default: // RN and P0.5 must be uniform
			if r.Triangularity > 0.45 {
				t.Errorf("%s %s triangularity %.2f, want uniform", r.Mode, r.LayerType, r.Triangularity)
			}
		}
	}
}

func TestFigure7COMPSOWins(t *testing.T) {
	rows, err := fig7Rows()
	if err != nil {
		t.Fatal(err)
	}
	// Index speedups by (platform, model, gpus).
	type key struct {
		platform, model string
		gpus            int
	}
	best := map[key]string{}
	val := map[key]float64{}
	for _, r := range rows {
		k := key{r.Platform, r.Model, r.GPUs}
		if r.Speedup > val[k] {
			val[k], best[k] = r.Speedup, r.Method
		}
		if r.Speedup < 1 {
			t.Errorf("%+v: speedup %.2f < 1", r, r.Speedup)
		}
	}
	for k, method := range best {
		if method != "COMPSO" {
			t.Errorf("%v: best method %s, want COMPSO", k, method)
		}
	}
	// Slingshot-10 benefits at least as much as Slingshot-11 (§5.2).
	for _, r := range rows {
		if r.Platform != "Platform 1" || r.Method != "COMPSO" {
			continue
		}
		for _, r2 := range rows {
			if r2.Platform == "Platform 2" && r2.Model == r.Model && r2.Method == "COMPSO" && r2.GPUs == r.GPUs {
				if r.Speedup < r2.Speedup*0.95 {
					t.Errorf("%s @%d: Slingshot-10 speedup %.2f well below Slingshot-11 %.2f",
						r.Model, r.GPUs, r.Speedup, r2.Speedup)
				}
			}
		}
	}
}

func TestTable2ShapeAndSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("encoder sweep is slow")
	}
	rows, tb, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("Table 2 produced %d rows", len(rows))
	}
	byEncoder := map[string]Table2Row{}
	for _, r := range rows {
		if r.Model == "BERT-large" {
			byEncoder[r.Encoder] = r
		}
	}
	// Entropy coders beat dictionary and run-length coders on CR (§5.2).
	for _, entropy := range []string{"ANS", "Deflate", "Zstd"} {
		for _, dict := range []string{"LZ4", "Snappy", "Cascaded", "Bitcomp"} {
			if byEncoder[entropy].CR <= byEncoder[dict].CR {
				t.Errorf("%s CR %.1f <= %s CR %.1f", entropy, byEncoder[entropy].CR, dict, byEncoder[dict].CR)
			}
		}
	}
	// The selected encoder is marked in the rendering.
	if !strings.Contains(tb.String(), "<==") {
		t.Error("no encoder selected in Table 2")
	}
}

func TestFigure8ModelOrdering(t *testing.T) {
	points, _, err := Figure8(false)
	if err != nil {
		t.Fatal(err)
	}
	at := func(name string, mb int) float64 {
		for _, p := range points {
			if p.Pipeline == name && p.SizeMB == mb {
				return p.ModelGBps
			}
		}
		t.Fatalf("missing point %s/%d", name, mb)
		return 0
	}
	// Figure 8 at large sizes: fused CUDA pipelines far above the
	// framework ones; COMPSO near QSGD.
	if at("COMPSO (CUDA)", 128) <= at("QSGD (PyTorch)", 128) {
		t.Error("fused COMPSO not above PyTorch QSGD")
	}
	if at("COMPSO (CUDA)", 128) <= at("CocktailSGD (PyTorch)", 128) {
		t.Error("fused COMPSO not above CocktailSGD")
	}
	if at("QSGD (CUDA)", 128) < at("COMPSO (CUDA)", 128) {
		t.Error("QSGD CUDA should be at least as fast as COMPSO (no filter work)")
	}
	// Throughput grows with size (launch amortization).
	if at("COMPSO (CUDA)", 1) >= at("COMPSO (CUDA)", 64) {
		t.Error("throughput did not grow with size")
	}
}

func TestFigure8Measured(t *testing.T) {
	if testing.Short() {
		t.Skip("measured pass is slow")
	}
	points, _, err := Figure8(true)
	if err != nil {
		t.Fatal(err)
	}
	// The chunk-parallel (fused-style) COMPSO must beat the multi-pass
	// TorchQSGD on real measured throughput at large sizes.
	var compso, torch float64
	for _, p := range points {
		if p.SizeMB == 64 {
			switch p.Pipeline {
			case "COMPSO (CUDA)":
				compso = p.MeasuredMBps
			case "QSGD (PyTorch)":
				torch = p.MeasuredMBps
			}
		}
	}
	if compso == 0 || torch == 0 {
		t.Fatal("missing measured points")
	}
	if compso <= torch {
		t.Errorf("measured chunk-parallel COMPSO %.0f MB/s <= multi-pass QSGD %.0f MB/s", compso, torch)
	}
}

func TestFigure9EndToEnd(t *testing.T) {
	rows, err := fig9Rows()
	if err != nil {
		t.Fatal(err)
	}
	var maxSpeedup float64
	pByKey := map[string]float64{}
	fByKey := map[string]float64{}
	for _, r := range rows {
		if r.Speedup > maxSpeedup {
			maxSpeedup = r.Speedup
		}
		if r.Speedup < 0.9 {
			t.Errorf("%+v: end-to-end slowdown %.2f", r, r.Speedup)
		}
		key := r.Platform + r.Model + fmt1(r.GPUs)
		switch r.Method {
		case "COMPSO-p":
			pByKey[key] = r.Speedup
		case "COMPSO-f":
			fByKey[key] = r.Speedup
		}
	}
	// Paper: up to 1.9x end-to-end.
	if maxSpeedup < 1.4 || maxSpeedup > 3.2 {
		t.Errorf("max end-to-end speedup %.2f outside the paper's ballpark (~1.9x)", maxSpeedup)
	}
	// COMPSO-p (performance-model aggregation) must win or tie COMPSO-f in
	// the large majority of configurations and never lose materially —
	// Eq. 5 is an estimate, so sub-0.1% ties from stochastic-rounding seeds
	// are expected.
	wins, losses := 0, 0
	for k, pv := range pByKey {
		fv := fByKey[k]
		switch {
		case pv > fv*(1+1e-4):
			wins++
		case pv < fv*(1-1e-3):
			losses++
			t.Errorf("%s: COMPSO-p %.4f materially below COMPSO-f %.4f", k, pv, fv)
		}
	}
	if wins <= losses {
		t.Errorf("COMPSO-p won %d vs lost %d configurations", wins, losses)
	}
	// The performance model's m (§4.4) costs at most 0.1% over the best m
	// the replay finds among the candidates.
	for _, r := range rows {
		if r.Method == "COMPSO-p" && r.Lost > 1e-3 {
			t.Errorf("%s %s @%d: model m=%d loses %.3f%% to replay-best m=%d", r.Platform, r.Model, r.GPUs, r.AggM, 100*r.Lost, r.BestM)
		}
	}
}

func fmt1(v int) string { return string(rune('0'+v%10)) + string(rune('0'+(v/10)%10)) }

func TestRunMethodCOMPSOPreservesAccuracy(t *testing.T) {
	// A compact version of Figure 6's claim, small enough for the default
	// test run: KFAC+COMPSO within a few accuracy points of plain KFAC on
	// the ResNet proxy.
	ms := Methods()
	var plain, withCompso Method
	for _, m := range ms {
		switch m.Name {
		case "KFAC (No Comp.)":
			plain = m
		case "KFAC+COMPSO":
			withCompso = m
		}
	}
	base, err := RunMethod("ResNet-50", plain, 40)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := RunMethod("ResNet-50", withCompso, 40)
	if err != nil {
		t.Fatal(err)
	}
	if comp.FinalAcc < base.FinalAcc-0.08 {
		t.Errorf("COMPSO accuracy %.3f vs plain %.3f", comp.FinalAcc, base.FinalAcc)
	}
	if comp.MeanCR <= 1 {
		t.Errorf("COMPSO mean CR %.1f", comp.MeanCR)
	}
}

func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep is slow")
	}
	rows, _, err := Figure3(60)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig3Row{}
	for _, r := range rows {
		byKey[r.Model+"/"+r.Method] = r
	}
	// Tight bounds compress less than loose ones.
	if byKey["ResNet-50/SZ 4E-3"].CR >= byKey["ResNet-50/SZ 1E-1"].CR {
		t.Error("SZ 4E-3 CR not below SZ 1E-1")
	}
	if byKey["ResNet-50/QSGD 8bit"].CR >= byKey["ResNet-50/QSGD 4bit"].CR {
		t.Error("QSGD 8bit CR not below 4bit")
	}
	// The accuracy-preserving settings stay near the uncompressed baseline,
	// while the loose SZ-1E-1 bound costs real accuracy — Figure 3's
	// motivation.
	base := byKey["ResNet-50/KFAC (no comp.)"].Accuracy
	if acc := byKey["ResNet-50/QSGD 8bit"].Accuracy; acc < base-8 {
		t.Errorf("QSGD 8bit accuracy %.1f far below baseline %.1f", acc, base)
	}
	if acc := byKey["ResNet-50/SZ 1E-1"].Accuracy; acc > base-2 {
		t.Errorf("SZ 1E-1 accuracy %.1f did not drop below baseline %.1f", acc, base)
	}
}

func TestFigure6AndTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full method sweep is slow")
	}
	runs, _, err := Figure6(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 18 {
		t.Fatalf("Figure 6 produced %d runs", len(runs))
	}
	// SGD runs 1.5x the iterations of the KFAC rows.
	for _, r := range runs {
		lastIter := r.Iterations[len(r.Iterations)-1]
		if r.Method == "SGD+CocktailSGD" && lastIter <= 30 {
			t.Errorf("%s/%s ran only %d iterations", r.Model, r.Method, lastIter)
		}
	}
	rows, _, err := Table1(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Table 1 produced %d rows", len(rows))
	}
	for _, r := range rows {
		if r.F1 < 0 || r.F1 > 100 || r.EM > r.F1+1e-9 {
			t.Errorf("%s: F1 %.1f EM %.1f malformed", r.Method, r.F1, r.EM)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	rows, _, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]AblationRow{}
	for _, r := range rows {
		by[r.Study+"/"+r.Variant] = r
	}
	// Filter is the main CR lever.
	if by["filter/filter+SR"].CR <= by["filter/SR only"].CR {
		t.Error("filter did not improve CR")
	}
	// Byte planes beat dense bit packing.
	if by["packing/byte planes"].CR <= by["packing/bit packed"].CR {
		t.Error("byte planes did not beat bit packing")
	}
	// All rounding modes respect the bound well enough to keep cosine high;
	// SR is at least as faithful as RN on direction.
	if by["rounding/SR"].Cosine < by["rounding/RN"].Cosine-1e-3 {
		t.Errorf("SR cosine %.4f well below RN %.4f", by["rounding/SR"].Cosine, by["rounding/RN"].Cosine)
	}
	// Aggregation shortens the all-gather (the m=1 note carries more ms).
	ms := func(variant string) float64 {
		var v float64
		if _, err := fmt.Sscanf(by["aggregation/"+variant].Note, "allgather %f ms/iter", &v); err != nil {
			t.Fatalf("aggregation/%s note %q: %v", variant, by["aggregation/"+variant].Note, err)
		}
		return v
	}
	if ms("m=1") <= ms("m=4") {
		t.Errorf("aggregation did not reduce comm: %q vs %q",
			by["aggregation/m=1"].Note, by["aggregation/m=4"].Note)
	}
	// The auto-tuner trades fidelity for ratio monotonically.
	if by["auto-tune/cos>=0.95"].CR <= by["auto-tune/cos>=0.99"].CR {
		t.Error("looser fidelity target did not increase CR")
	}
	if by["factor-comp/eb=1e-3"].CR <= 1.5 {
		t.Error("factor compression achieved no ratio")
	}
}

func TestHeadline(t *testing.T) {
	f7, err := fig7Rows()
	if err != nil {
		t.Fatal(err)
	}
	f9, err := fig9Rows()
	if err != nil {
		t.Fatal(err)
	}
	res, tb, err := headline(f7, f9)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCR < 15 || res.MeanCR > 30 {
		t.Errorf("headline CR %.1f outside the paper's ballpark (22.1)", res.MeanCR)
	}
	if res.MaxCommSpeedup < 8 {
		t.Errorf("headline comm speedup %.1f too low", res.MaxCommSpeedup)
	}
	if res.MaxE2ESpeedup < 1.4 || res.MaxE2ESpeedup > 3.5 {
		t.Errorf("headline e2e speedup %.2f outside the paper's ballpark (1.9)", res.MaxE2ESpeedup)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("headline table rows %d", len(tb.Rows))
	}
	if res.String() == "" {
		t.Fatal("empty headline string")
	}
}
