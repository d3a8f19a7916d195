package opt

import (
	"math"
	"testing"

	"compso/internal/nn"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// quadratic builds a single-parameter problem min ||w - target||² and
// returns (param, set-gradient func, loss func).
func quadratic(dim int, seed int64) (*nn.Param, func(), func() float64) {
	rng := xrand.NewSeeded(seed)
	p := &nn.Param{Name: "w", W: tensor.New(1, dim), Grad: tensor.New(1, dim)}
	target := make([]float64, dim)
	for i := range target {
		target[i] = rng.NormFloat64() * 3
	}
	setGrad := func() {
		for i := range p.W.Data {
			p.Grad.Data[i] = 2 * (p.W.Data[i] - target[i])
		}
	}
	loss := func() float64 {
		var s float64
		for i := range p.W.Data {
			d := p.W.Data[i] - target[i]
			s += d * d
		}
		return s
	}
	return p, setGrad, loss
}

func testConverges(t *testing.T, o *SGD, lr float64, iters int) {
	t.Helper()
	p, setGrad, loss := quadratic(8, 42)
	first := loss()
	for i := 0; i < iters; i++ {
		p.ZeroGrad()
		setGrad()
		o.Step([]*nn.Param{p}, lr)
	}
	if last := loss(); last > first/100 {
		t.Fatalf("SGD did not converge: %g -> %g", first, last)
	}
}

func TestSGDConverges(t *testing.T) { testConverges(t, NewSGD(0.9, 0), 0.05, 200) }

func TestSGDMomentumAccelerates(t *testing.T) {
	lossAfter := func(momentum float64) float64 {
		p, setGrad, loss := quadratic(8, 7)
		o := NewSGD(momentum, 0)
		for i := 0; i < 30; i++ {
			p.ZeroGrad()
			setGrad()
			o.Step([]*nn.Param{p}, 0.02)
		}
		return loss()
	}
	if lossAfter(0.9) >= lossAfter(0) {
		t.Fatal("momentum did not accelerate quadratic convergence")
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := &nn.Param{Name: "w", W: tensor.FromSlice(1, 1, []float64{10}), Grad: tensor.New(1, 1)}
	o := NewSGD(0, 0.1)
	for i := 0; i < 50; i++ {
		p.ZeroGrad() // gradient stays zero: only decay acts
		o.Step([]*nn.Param{p}, 0.1)
	}
	if math.Abs(p.W.Data[0]) >= 10 {
		t.Fatalf("weight decay did not shrink weight: %g", p.W.Data[0])
	}
}

func TestStepLRSchedule(t *testing.T) {
	s := &StepLR{BaseLR: 1.0, Drops: []int{10, 20}, Gamma: 0.1}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	cases := map[int]float64{0: 1, 9: 1, 10: 0.1, 19: 0.1, 20: 0.01, 100: 0.01}
	for it, want := range cases {
		if got := s.LR(it); math.Abs(got-want) > 1e-12 {
			t.Fatalf("StepLR(%d) = %g, want %g", it, got, want)
		}
	}
	if s.FirstDrop() != 10 {
		t.Fatalf("FirstDrop = %d, want 10", s.FirstDrop())
	}
	if (&StepLR{}).FirstDrop() != math.MaxInt {
		t.Fatal("empty StepLR FirstDrop should be MaxInt")
	}
}

func TestSmoothLRSchedule(t *testing.T) {
	s := &SmoothLR{BaseLR: 1.0, MinLR: 0.01, Warmup: 10, Total: 110}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	if got := s.LR(0); got >= s.LR(9) {
		t.Fatal("warmup not increasing")
	}
	if math.Abs(s.LR(10)-1.0) > 1e-9 {
		t.Fatalf("post-warmup LR = %g, want 1.0", s.LR(10))
	}
	if got := s.LR(109); got > 0.02 {
		t.Fatalf("final LR = %g, want ~MinLR", got)
	}
	// Monotone decreasing after warmup.
	prev := s.LR(10)
	for it := 11; it < 110; it++ {
		cur := s.LR(it)
		if cur > prev+1e-12 {
			t.Fatalf("SmoothLR increased at %d: %g -> %g", it, prev, cur)
		}
		prev = cur
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Schedule{
		&StepLR{BaseLR: 0, Gamma: 0.1},
		&StepLR{BaseLR: 1, Gamma: 2},
		&StepLR{BaseLR: 1, Gamma: 0.1, Drops: []int{20, 10}},
		&SmoothLR{BaseLR: 1, Total: 0},
		&SmoothLR{BaseLR: -1, Total: 10},
	}
	for i, s := range bad {
		if Validate(s) == nil {
			t.Errorf("case %d: Validate accepted invalid schedule", i)
		}
	}
}
