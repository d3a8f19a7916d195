package compso

import (
	"math"
	"testing"

	"compso/internal/encoding"
	"compso/internal/opt"
	"compso/internal/xrand"
)

func TestStepLRStrategy(t *testing.T) {
	// ResNet-50 in the paper: first LR drop at epoch 25 → aggressive
	// (filter+SR, 4e-3) before, conservative (SR-only, 2e-3) after.
	sched := &opt.StepLR{BaseLR: 0.1, Drops: []int{25}, Gamma: 0.1}
	c := DefaultController(sched, 100)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	early := c.StrategyAt(0)
	if !early.FilterEnabled || early.EBFilter != 4e-3 || early.EBQuant != 4e-3 {
		t.Fatalf("early strategy %+v", early)
	}
	late := c.StrategyAt(25)
	if late.FilterEnabled || late.EBQuant != 2e-3 {
		t.Fatalf("late strategy %+v", late)
	}
}

func TestSmoothLRStageDecay(t *testing.T) {
	// BERT in the paper: four stages refining the bound 4e-3 → 2e-3.
	sched := &opt.SmoothLR{BaseLR: 1e-3, Warmup: 10, Total: 1000}
	c := DefaultController(sched, 1000)
	s0 := c.StrategyAt(0)
	s3 := c.StrategyAt(999)
	if !s0.FilterEnabled || !s3.FilterEnabled {
		t.Fatal("SmoothLR should keep the filter with decaying bounds")
	}
	if math.Abs(s0.EBQuant-4e-3) > 1e-12 {
		t.Fatalf("stage 0 bound %g", s0.EBQuant)
	}
	if math.Abs(s3.EBQuant-2e-3) > 1e-6 {
		t.Fatalf("final stage bound %g, want 2e-3", s3.EBQuant)
	}
	// Bounds must be monotone non-increasing across iterations.
	prev := math.Inf(1)
	for it := 0; it < 1000; it += 50 {
		cur := c.StrategyAt(it).EBQuant
		if cur > prev+1e-15 {
			t.Fatalf("bound increased at iteration %d", it)
		}
		prev = cur
	}
}

func TestStrategyBeyondTotalClamps(t *testing.T) {
	c := DefaultController(&opt.SmoothLR{BaseLR: 1, Total: 100}, 100)
	if got := c.StrategyAt(5000); math.Abs(got.EBQuant-2e-3) > 1e-6 {
		t.Fatalf("overflow iteration bound %g", got.EBQuant)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	c := DefaultController(&opt.StepLR{BaseLR: 1, Gamma: 0.1}, 10)
	c.Stages = 0
	if c.Validate() == nil {
		t.Fatal("stages=0 accepted")
	}
	c = DefaultController(&opt.StepLR{BaseLR: 1, Gamma: 0.1}, 10)
	c.LooseEBF = -1
	if c.Validate() == nil {
		t.Fatal("negative bound accepted")
	}
}

func TestApplyConfiguresCompressor(t *testing.T) {
	sched := &opt.StepLR{BaseLR: 0.1, Drops: []int{10}, Gamma: 0.1}
	c := DefaultController(sched, 20)
	comp := NewCompressor(encoding.ANS{}, 3, 7)
	c.Apply(0, comp)
	if !comp.FilterEnabled || comp.EBFilter != 4e-3 {
		t.Fatalf("aggressive apply: %+v", comp)
	}
	c.Apply(15, comp)
	if comp.FilterEnabled || comp.EBQuant != 2e-3 {
		t.Fatalf("conservative apply: %+v", comp)
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	grads := [][]float32{{1, 2}, {3}, {}, {4, 5, 6}}
	flat := Concat(grads)
	if len(flat) != 6 {
		t.Fatalf("flat length %d", len(flat))
	}
	back, err := Split(flat, []int{2, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range grads {
		if len(back[i]) != len(grads[i]) {
			t.Fatalf("part %d length %d", i, len(back[i]))
		}
		for j := range grads[i] {
			if back[i][j] != grads[i][j] {
				t.Fatalf("part %d[%d] = %g", i, j, back[i][j])
			}
		}
	}
	if _, err := Split(flat, []int{2, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestUnknownScheduleConservative(t *testing.T) {
	c := DefaultController(nil, 10)
	s := c.StrategyAt(0)
	if s.FilterEnabled || s.EBQuant != 2e-3 {
		t.Fatalf("unknown schedule strategy %+v", s)
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := []float32{1, 0, 0}
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self cosine = %g", got)
	}
	if got := CosineSimilarity(a, []float32{0, 1, 0}); got != 0 {
		t.Fatalf("orthogonal cosine = %g", got)
	}
	if got := CosineSimilarity(a, []float32{-1, 0, 0}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("opposite cosine = %g", got)
	}
	if got := CosineSimilarity(a, []float32{0, 0, 0}); got != 0 {
		t.Fatalf("zero-vector cosine = %g", got)
	}
}

func TestTuneBoundsFindsTarget(t *testing.T) {
	sample := make([]float32, 100000)
	xrand.KFACGradient(xrand.NewSeeded(9), sample, 1.0)
	res, err := TuneBounds(sample, 0.97, 1e-5, 1e-1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cosine < 0.97 {
		t.Fatalf("tuned cosine %.4f below target", res.Cosine)
	}
	if res.ErrorBound <= 1e-5 || res.ErrorBound >= 1e-1 {
		t.Fatalf("tuned bound %g at bracket edge", res.ErrorBound)
	}
	// A materially larger bound must violate the target (maximality).
	larger, err := TuneBounds(sample, 0.97, res.ErrorBound*4, 1e-1, 7)
	if err == nil && larger.Cosine >= 0.97 && larger.ErrorBound > res.ErrorBound*4 {
		t.Fatalf("bound %g not maximal: %g also satisfies", res.ErrorBound, larger.ErrorBound)
	}
	// Tighter targets yield tighter bounds.
	strict, err := TuneBounds(sample, 0.999, 1e-5, 1e-1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if strict.ErrorBound >= res.ErrorBound {
		t.Fatalf("stricter target gave looser bound: %g vs %g", strict.ErrorBound, res.ErrorBound)
	}
}

func TestTuneBoundsValidation(t *testing.T) {
	sample := []float32{1, 2, 3}
	if _, err := TuneBounds(nil, 0.9, 1e-4, 1e-2, 1); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := TuneBounds(sample, 1.5, 1e-4, 1e-2, 1); err == nil {
		t.Fatal("target > 1 accepted")
	}
	if _, err := TuneBounds(sample, 0.9, 1e-2, 1e-4, 1); err == nil {
		t.Fatal("inverted bracket accepted")
	}
}
