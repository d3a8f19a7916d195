package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/modelzoo"
	"compso/internal/perfmodel"
)

// The whole-figure judges read their rows through these, once per test
// binary: TestHeadline shares Figures 7 and 9, and
// TestRunMethodCOMPSOPreservesAccuracy shares Figure 6's runs. Under the
// race detector each is a slice of its figure (raceEnabled).
var (
	fig3Rows = sync.OnceValues(func() ([]Fig3Row, error) {
		if !raceEnabled {
			rows, _, err := Figure3(fig3TestIters)
			return rows, err
		}
		// The baseline's and QSGD 8bit's accuracies, the pair one
		// assertion compares, and QSGD 8bit's CR.
		ladder := fig3Methods()
		rung := ladder[len(ladder)-1]
		base, err := proxyAccuracy("ResNet-50", nil, fig3TestIters)
		if err != nil {
			return nil, err
		}
		cr, err := MeasureCR(modelzoo.ResNet50(), rung.mk(0), 1, 333)
		if err != nil {
			return nil, err
		}
		acc, err := proxyAccuracy("ResNet-50", rung.mk, fig3TestIters)
		return []Fig3Row{
			{Model: "ResNet-50", Method: "KFAC (no comp.)", CR: 1, Accuracy: base},
			{Model: "ResNet-50", Method: rung.name, CR: cr, Accuracy: acc},
		}, err
	})
	fig6Runs = sync.OnceValues(func() ([]Fig6Run, error) {
		if !raceEnabled {
			runs, _, err := Figure6(fig6TestIters)
			return runs, err
		}
		// The two ResNet-50 rows TestRunMethodCOMPSOPreservesAccuracy reads.
		var runs []Fig6Run
		for _, m := range Methods() {
			if m.Name != "KFAC (No Comp.)" && m.Name != "KFAC+COMPSO" {
				continue
			}
			run, err := RunMethod("ResNet-50", m, fig6TestIters)
			if err != nil {
				return nil, err
			}
			runs = append(runs, *run)
		}
		return runs, nil
	})
	table1Rows = sync.OnceValues(func() ([]Table1Row, error) {
		if !raceEnabled {
			rows, _, err := Table1(table1TestIters)
			return rows, err
		}
		// KFAC+COMPSO's row, the last of Methods.
		ms := Methods()
		row, err := table1Row(ms[len(ms)-1], table1TestIters)
		return []Table1Row{row}, err
	})
	fig7Rows = sync.OnceValues(func() ([]Fig7Row, error) {
		if !raceEnabled {
			rows, _, err := Figure7()
			return rows, err
		}
		// Every method on one model and platform.
		return fig7Model(0, cluster.Platform1(), modelzoo.ResNet50())
	})
	fig9Rows = sync.OnceValues(func() ([]Fig9Row, error) {
		if !raceEnabled {
			rows, _, err := Figure9()
			return rows, err
		}
		// Every method on one model and platform.
		cfg := cluster.Platform1()
		lt, err := perfmodel.BuildLookupTable(cfg, []int{8, 16, 32, 64})
		if err != nil {
			return nil, err
		}
		return fig9Model(0, cfg, lt, modelzoo.ResNet50())
	})
)

// The judges that compute or read whole figures run in parallel with each
// other (t.Parallel): each is CPU-bound on its own rows, and they share
// nothing but the rows memoized above.

// The tests' training budgets: Figure 6 and
// TestRunMethodCOMPSOPreservesAccuracy share one.
const (
	fig3TestIters   = 60
	fig6TestIters   = 30
	table1TestIters = 40
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "t", Headers: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tb.String()
	if !strings.Contains(s, "== t ==") || !strings.Contains(s, "bb") {
		t.Fatalf("rendering:\n%s", s)
	}
}

func TestMeasureCRCompsoBeatsAccuracyPreservingBaselines(t *testing.T) {
	t.Parallel()
	// The headline: COMPSO's CR (~22x in the paper) must exceed the
	// accuracy-preserving baselines (QSGD-8bit, SZ-4E-3) on every model.
	for _, p := range modelzoo.All() {
		crs, err := measureCRs(p, []compress.Compressor{
			compso.NewCompressor(nil, 0, 1), compress.NewQSGD(8, 2), compress.NewSZ(4e-3),
		}, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		compsoCR, qsgdCR, szCR := crs[0], crs[1], crs[2]
		if compsoCR <= qsgdCR || compsoCR <= szCR {
			t.Errorf("%s: COMPSO %.1f vs QSGD8 %.1f, SZ4e-3 %.1f", p.Name, compsoCR, qsgdCR, szCR)
		}
		if compsoCR < 12 || compsoCR > 40 {
			t.Errorf("%s: COMPSO CR %.1f outside the paper's ballpark (~20x)", p.Name, compsoCR)
		}
	}
}

// measureCRs shares one set of samples among its compressors; each ratio
// must still be its own MeasureCR call's, so no compressor may alter the
// samples it is handed.
func TestMeasureCRsMatchesMeasureCR(t *testing.T) {
	mks := []func() compress.Compressor{
		func() compress.Compressor { return compso.NewCompressor(nil, 0, 1) },
		func() compress.Compressor { return compress.NewSZ(4e-3) },
		func() compress.Compressor { return compress.NewQSGD(8, 2) },
		func() compress.Compressor { return compress.NewCocktailSGD(0.2, 8, 3) },
	}
	p := modelzoo.ResNet50()
	comps := make([]compress.Compressor, len(mks))
	for i, mk := range mks {
		comps[i] = mk()
	}
	crs, err := measureCRs(p, comps, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, mk := range mks {
		want, err := MeasureCR(p, mk(), 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		if crs[i] != want {
			t.Errorf("%s: shared samples give CR %v, its own MeasureCR %v", comps[i].Name(), crs[i], want)
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
	t.Parallel()
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

// TestFigure8Measured times the two 64 MB points it asserts on; the whole
// sweep is -exp fig8 -measure. Each compressor is cold here, where the
// sweep has warmed it on the smaller sizes; measured on a 2-core host, that
// costs either side under a third of its throughput and leaves the gap
// several-fold.
func TestFigure8Measured(t *testing.T) {
	// The chunk-parallel (fused-style) COMPSO must beat the multi-pass
	// TorchQSGD on real measured throughput at large sizes.
	var compso, torch float64
	for _, impl := range fig8Impls() {
		var into *float64
		switch impl.pipeline.Name {
		case "COMPSO (CUDA)":
			into = &compso
		case "QSGD (PyTorch)":
			into = &torch
		default:
			continue
		}
		p, err := fig8Point(impl, impl.mk(), 64)
		if err != nil {
			t.Fatal(err)
		}
		*into = p.MeasuredMBps
	}
	if compso == 0 || torch == 0 {
		t.Fatal("missing measured points")
	}
	if compso <= torch {
		t.Errorf("measured chunk-parallel COMPSO %.0f MB/s <= multi-pass QSGD %.0f MB/s", compso, torch)
	}
}

func TestFigure9EndToEnd(t *testing.T) {
	t.Parallel()
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
	// Paper: up to 1.9x end-to-end. (The maximum and the win count below
	// are over the whole figure.)
	if !raceEnabled && (maxSpeedup < 1.4 || maxSpeedup > 3.2) {
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
	if !raceEnabled && wins <= losses {
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
	t.Parallel()
	// A compact version of Figure 6's claim: KFAC+COMPSO within a few
	// accuracy points of plain KFAC on the ResNet proxy.
	runs, err := fig6Runs()
	if err != nil {
		t.Fatal(err)
	}
	var base, comp *Fig6Run
	for i, r := range runs {
		if r.Model != "ResNet-50" {
			continue
		}
		switch r.Method {
		case "KFAC (No Comp.)":
			base = &runs[i]
		case "KFAC+COMPSO":
			comp = &runs[i]
		}
	}
	if base == nil || comp == nil {
		t.Fatal("Figure 6 has no ResNet-50 KFAC (No Comp.) and KFAC+COMPSO runs")
	}
	if comp.FinalAcc < base.FinalAcc-0.08 {
		t.Errorf("COMPSO accuracy %.3f vs plain %.3f", comp.FinalAcc, base.FinalAcc)
	}
	if comp.MeanCR <= 1 {
		t.Errorf("COMPSO mean CR %.1f", comp.MeanCR)
	}
}

func TestFigure3Shape(t *testing.T) {
	t.Parallel()
	rows, err := fig3Rows()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig3Row{}
	for _, r := range rows {
		byKey[r.Model+"/"+r.Method] = r
	}
	// The accuracy-preserving settings stay near the uncompressed baseline.
	base := byKey["ResNet-50/KFAC (no comp.)"].Accuracy
	if acc := byKey["ResNet-50/QSGD 8bit"].Accuracy; acc < base-8 {
		t.Errorf("QSGD 8bit accuracy %.1f far below baseline %.1f", acc, base)
	}
	if raceEnabled {
		return // the slice holds only those two rows
	}
	if len(rows) != 10 {
		t.Fatalf("Figure 3 produced %d rows", len(rows))
	}
	// Tight bounds compress less than loose ones.
	if byKey["ResNet-50/SZ 4E-3"].CR >= byKey["ResNet-50/SZ 1E-1"].CR {
		t.Error("SZ 4E-3 CR not below SZ 1E-1")
	}
	if byKey["ResNet-50/QSGD 8bit"].CR >= byKey["ResNet-50/QSGD 4bit"].CR {
		t.Error("QSGD 8bit CR not below 4bit")
	}
	// The loose SZ-1E-1 bound costs real accuracy — Figure 3's motivation.
	if acc := byKey["ResNet-50/SZ 1E-1"].Accuracy; acc > base-2 {
		t.Errorf("SZ 1E-1 accuracy %.1f did not drop below baseline %.1f", acc, base)
	}
}

func TestFigure6AndTable1Smoke(t *testing.T) {
	t.Parallel()
	runs, err := fig6Runs()
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && len(runs) != 18 {
		t.Fatalf("Figure 6 produced %d runs", len(runs))
	}
	// SGD runs 1.5x the iterations of the KFAC rows.
	for _, r := range runs {
		lastIter := r.Iterations[len(r.Iterations)-1]
		if r.Method == "SGD+CocktailSGD" && lastIter <= fig6TestIters {
			t.Errorf("%s/%s ran only %d iterations", r.Model, r.Method, lastIter)
		}
	}
	rows, err := table1Rows()
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && len(rows) != 6 {
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
	t.Parallel()
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
	// The speedups are maxima over the whole of Figures 7 and 9.
	if !raceEnabled && res.MaxCommSpeedup < 8 {
		t.Errorf("headline comm speedup %.1f too low", res.MaxCommSpeedup)
	}
	if !raceEnabled && (res.MaxE2ESpeedup < 1.4 || res.MaxE2ESpeedup > 3.5) {
		t.Errorf("headline e2e speedup %.2f outside the paper's ballpark (1.9)", res.MaxE2ESpeedup)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("headline table rows %d", len(tb.Rows))
	}
	if res.String() == "" {
		t.Fatal("empty headline string")
	}
}
