package kfac

import (
	"math"
	"reflect"
	"testing"

	"compso/internal/compress"
	"compso/internal/nn"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

func buildModel(seed int64) *nn.Sequential {
	rng := xrand.NewSeeded(seed)
	return nn.NewSequential(
		nn.NewDense(2, 16, rng),
		nn.NewReLU(),
		nn.NewDense(16, 3, rng),
	)
}

func makeBatch(rng interface {
	IntN(int) int
	NormFloat64() float64
}, n int) (*tensor.Matrix, *tensor.Matrix) {
	centers := [][2]float64{{2, 0}, {-2, 2}, {0, -3}}
	x := tensor.New(n, 2)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		c := rng.IntN(3)
		x.Data[i*2] = centers[c][0] + rng.NormFloat64()*0.3
		x.Data[i*2+1] = centers[c][1] + rng.NormFloat64()*0.3
		y.Data[i] = float64(c)
	}
	return x, y
}

func TestNewFindsKFACLayers(t *testing.T) {
	k := New(buildModel(1), DefaultConfig())
	if k.NumLayers() != 2 {
		t.Fatalf("NumLayers = %d, want 2", k.NumLayers())
	}
	names := k.LayerNames()
	if names[0] == names[1] {
		t.Fatal("layer names not unique")
	}
	if k.LayerGradSize(0) != 3*16 { // (2+1)×16
		t.Fatalf("LayerGradSize(0) = %d, want 48", k.LayerGradSize(0))
	}
	a, g := k.FactorDims(0)
	if a != 3 || g != 16 {
		t.Fatalf("FactorDims = %d,%d want 3,16", a, g)
	}
}

func TestKFACConvergesFasterThanSGD(t *testing.T) {
	// The premise of the paper: K-FAC reaches a loss target in fewer
	// iterations than SGD (Figure 6a). Train both on the same stream.
	const iters = 60
	runSGD := func() float64 {
		rng := xrand.NewSeeded(100)
		model := buildModel(2)
		loss := nn.SoftmaxCrossEntropy{}
		var last float64
		for i := 0; i < iters; i++ {
			x, y := makeBatch(rng, 32)
			logits := model.Forward(x, true)
			l, grad := loss.Loss(logits, y)
			last = l
			model.ZeroGrad()
			model.Backward(grad)
			for _, p := range model.Params() {
				for j := range p.W.Data {
					p.W.Data[j] -= 0.05 * p.Grad.Data[j]
				}
			}
		}
		return last
	}
	runKFAC := func() float64 {
		rng := xrand.NewSeeded(100)
		model := buildModel(2)
		k := New(model, DefaultConfig())
		loss := nn.SoftmaxCrossEntropy{}
		var last float64
		for i := 0; i < iters; i++ {
			x, y := makeBatch(rng, 32)
			logits := model.Forward(x, true)
			l, grad := loss.Loss(logits, y)
			last = l
			model.ZeroGrad()
			model.Backward(grad)
			if err := k.Step(32, 0.05); err != nil {
				t.Fatal(err)
			}
		}
		return last
	}
	sgdLoss := runSGD()
	kfacLoss := runKFAC()
	if kfacLoss >= sgdLoss {
		t.Fatalf("KFAC loss %g >= SGD loss %g after %d iters", kfacLoss, sgdLoss, iters)
	}
}

func TestPreconditionBeforeEigenFails(t *testing.T) {
	model := buildModel(3)
	k := New(model, DefaultConfig())
	if _, err := k.Precondition(0); err == nil {
		t.Fatal("Precondition before eigendecomposition succeeded")
	}
}

// TestPreconditionAllocatesOnlyItsPayload: after one step a layer's
// preconditioned gradient lives in the layer state, so Precondition
// allocates only the float32 payload it returns and SetPreconditioned
// nothing, on both inversion routes.
func TestPreconditionAllocatesOnlyItsPayload(t *testing.T) {
	for _, inv := range []Inversion{EigenDecomp, CholeskyInverse} {
		model := buildModel(11)
		cfg := DefaultConfig()
		cfg.Inversion = inv
		k := New(model, cfg)
		x, y := makeBatch(xrand.NewSeeded(12), 8)
		_, grad := nn.SoftmaxCrossEntropy{}.Loss(model.Forward(x, true), y)
		model.Backward(grad)
		if err := k.Step(8, 0.02); err != nil {
			t.Fatal(err)
		}
		for i := range k.layers {
			var vals []float32
			if n := testing.AllocsPerRun(3, func() { vals, _ = k.Precondition(i) }); n > 1 {
				t.Errorf("%v layer %d: Precondition allocated %.0f objects, want only its payload", inv, i, n)
			}
			if n := testing.AllocsPerRun(3, func() { _ = k.SetPreconditioned(i, vals) }); n > 0 {
				t.Errorf("%v layer %d: SetPreconditioned allocated %.0f objects, want none", inv, i, n)
			}
		}
		if err := k.ApplyUpdate(0.02); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCovarianceRoundTrip(t *testing.T) {
	model := buildModel(4)
	k := New(model, DefaultConfig())
	rng := xrand.NewSeeded(5)
	x, y := makeBatch(rng, 16)
	logits := model.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy{}.Loss(logits, y)
	model.Backward(grad)
	k.AccumulateStats(16)
	buf := k.PendingCovariances()
	if len(buf) != k.CovarianceLen() {
		t.Fatalf("buffer %d, want %d", len(buf), k.CovarianceLen())
	}
	if err := k.CommitCovariances(buf, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.CommitCovariances(buf[:3], 1); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := k.CommitCovariances(buf, 0); err == nil {
		t.Fatal("world size 0 accepted")
	}
}

// The trainer keeps one covariance buffer per rank: appending into it must
// overwrite whatever the step before left there, in its storage, and neither
// the optimizer nor a state snapshot may hold on to it afterwards.
func TestAppendPendingCovariancesReusesTheCallersBuffer(t *testing.T) {
	model := buildModel(4)
	k := New(model, DefaultConfig())
	x, y := makeBatch(xrand.NewSeeded(5), 16)
	_, grad := nn.SoftmaxCrossEntropy{}.Loss(model.Forward(x, true), y)
	model.Backward(grad)
	k.AccumulateStats(16)
	want := k.PendingCovariances()

	buf := make([]float64, k.CovarianceLen())
	for i := range buf {
		buf[i] = math.NaN()
	}
	got := k.AppendPendingCovariances(buf[:0])
	if &got[0] != &buf[0] {
		t.Fatal("a buffer with room was not reused")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("appended covariances differ from PendingCovariances")
	}
	if err := k.CommitCovariances(got, 1); err != nil {
		t.Fatal(err)
	}
	before := k.CaptureState()
	for i := range got {
		got[i] = math.NaN()
	}
	if after := k.CaptureState(); !reflect.DeepEqual(after, before) {
		t.Fatal("overwriting the caller's buffer after the commit changed the optimizer's state")
	}
}

func TestPreconditionMatchesDirectInverse(t *testing.T) {
	// The eigendecomposition route (Eq. 2) must agree with the explicit
	// (A⊗G + γI)⁻¹ vec(grad) it approximates — on a small layer where the
	// Kronecker inverse is computable directly.
	rng := xrand.NewSeeded(6)
	model := nn.NewSequential(nn.NewDense(2, 2, rng))
	k := New(model, Config{Damping: 0.01, StatDecay: 0.0, InvFreq: 1})
	x := tensor.FromSlice(4, 2, []float64{1, 2, -1, 0.5, 0.3, -2, 2, 1})
	y := tensor.FromSlice(4, 1, []float64{0, 1, 1, 0})
	logits := model.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy{}.Loss(logits, y)
	model.ZeroGrad()
	model.Backward(grad)
	k.AccumulateStats(4)
	if err := k.CommitCovariances(k.PendingCovariances(), 1); err != nil {
		t.Fatal(err)
	}
	if err := k.RefreshEigen(0); err != nil {
		t.Fatal(err)
	}
	got, err := k.Precondition(0)
	if err != nil {
		t.Fatal(err)
	}

	// Direct route. With StatDecay 0 the running factors equal this
	// batch's factors times (1-decay)=1.
	l := k.layers[0]
	// vec ordering: our V = QAᵀ Ĝ QG with Ĝ (in+1)×out corresponds to
	// F = A ⊗ G acting on vec_row(Ĝ) where rows index A.
	kron := tensor.Kron(l.A.Clone().Symmetrize(), l.G.Clone().Symmetrize())
	kron.AddDiag(0.01)
	inv, err := tensor.InverseSPD(kron)
	if err != nil {
		t.Fatal(err)
	}
	gradFlat := l.layer.KFACParam().Grad.Data
	want := inv.MulVec(nil, gradFlat)
	for i := range want {
		if math.Abs(want[i]-float64(got[i])) > 1e-4*(1+math.Abs(want[i])) {
			t.Fatalf("precondition[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSetPreconditionedValidatesLength(t *testing.T) {
	model := buildModel(7)
	k := New(model, DefaultConfig())
	if err := k.SetPreconditioned(0, make([]float32, 5)); err == nil {
		t.Fatal("wrong-length preconditioned gradient accepted")
	}
}

func TestApplyUpdateRequiresPrecond(t *testing.T) {
	model := buildModel(8)
	k := New(model, DefaultConfig())
	if err := k.ApplyUpdate(0.1); err == nil {
		t.Fatal("ApplyUpdate without preconditioned gradients succeeded")
	}
}

func TestNeedsEigenSchedule(t *testing.T) {
	model := buildModel(9)
	cfg := DefaultConfig()
	cfg.InvFreq = 3
	k := New(model, cfg)
	rng := xrand.NewSeeded(10)
	wantPattern := []bool{true, false, false, true, false, false}
	for i, want := range wantPattern {
		if got := k.NeedsEigen(); got != want {
			t.Fatalf("step %d: NeedsEigen = %v, want %v", i, got, want)
		}
		x, y := makeBatch(rng, 8)
		logits := model.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy{}.Loss(logits, y)
		model.ZeroGrad()
		model.Backward(grad)
		if err := k.Step(8, 0.01); err != nil {
			t.Fatal(err)
		}
	}
}

func TestKLClipBoundsUpdate(t *testing.T) {
	model := buildModel(11)
	cfg := DefaultConfig()
	cfg.KLClip = 1e-6 // very tight clip
	k := New(model, cfg)
	rng := xrand.NewSeeded(12)
	x, y := makeBatch(rng, 16)
	before := make([]float64, 0)
	for _, p := range model.Params() {
		before = append(before, p.W.Data...)
	}
	logits := model.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy{}.Loss(logits, y)
	model.ZeroGrad()
	model.Backward(grad)
	if err := k.Step(16, 1.0); err != nil { // large lr; clip must protect
		t.Fatal(err)
	}
	after := make([]float64, 0)
	for _, p := range model.Params() {
		after = append(after, p.W.Data...)
	}
	var delta float64
	for i := range before {
		d := after[i] - before[i]
		delta += d * d
	}
	if math.Sqrt(delta) > 1.0 {
		t.Fatalf("KL clip failed: update norm %g", math.Sqrt(delta))
	}
}

func TestDistributedStagesMatchSingleProcess(t *testing.T) {
	// Running the staged API (accumulate → commit → eigen → precondition →
	// set → apply) must equal Step exactly.
	modelA := buildModel(13)
	modelB := buildModel(13)
	kA := New(modelA, DefaultConfig())
	kB := New(modelB, DefaultConfig())
	rngA := xrand.NewSeeded(14)
	rngB := xrand.NewSeeded(14)
	for iter := 0; iter < 3; iter++ {
		xA, yA := makeBatch(rngA, 8)
		xB, yB := makeBatch(rngB, 8)
		for m, pair := range []struct {
			model *nn.Sequential
			x, y  *tensor.Matrix
		}{{modelA, xA, yA}, {modelB, xB, yB}} {
			logits := pair.model.Forward(pair.x, true)
			_, grad := nn.SoftmaxCrossEntropy{}.Loss(logits, pair.y)
			pair.model.ZeroGrad()
			pair.model.Backward(grad)
			_ = m
		}
		if err := kA.Step(8, 0.02); err != nil {
			t.Fatal(err)
		}
		kB.AccumulateStats(8)
		if err := kB.CommitCovariances(kB.PendingCovariances(), 1); err != nil {
			t.Fatal(err)
		}
		if kB.NeedsEigen() {
			for i := 0; i < kB.NumLayers(); i++ {
				if err := kB.RefreshEigen(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < kB.NumLayers(); i++ {
			v, err := kB.Precondition(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := kB.SetPreconditioned(i, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := kB.ApplyUpdate(0.02); err != nil {
			t.Fatal(err)
		}
	}
	pa, pb := modelA.Params(), modelB.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if math.Abs(pa[i].W.Data[j]-pb[i].W.Data[j]) > 1e-9 {
				t.Fatalf("param %d[%d] diverged: %g vs %g", i, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
}

func TestCholeskyInversionConverges(t *testing.T) {
	model := buildModel(30)
	cfg := DefaultConfig()
	cfg.Inversion = CholeskyInverse
	k := New(model, cfg)
	rng := xrand.NewSeeded(31)
	loss := nn.SoftmaxCrossEntropy{}
	var first, last float64
	for i := 0; i < 60; i++ {
		x, y := makeBatch(rng, 32)
		logits := model.Forward(x, true)
		l, grad := loss.Loss(logits, y)
		if i == 0 {
			first = l
		}
		last = l
		model.ZeroGrad()
		model.Backward(grad)
		if err := k.Step(32, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	if last > first/3 {
		t.Fatalf("Cholesky-mode KFAC did not converge: %g -> %g", first, last)
	}
}

func TestCholeskyMatchesEigenDirection(t *testing.T) {
	// Both inversion routes approximate the same natural-gradient
	// direction. At vanishing damping they diverge in the factors'
	// near-null directions (joint vs factored Tikhonov regularize those
	// differently), so compare at a practical damping where both are
	// well-posed.
	run := func(inv Inversion) []float32 {
		model := buildModel(32)
		cfg := Config{Damping: 0.05, StatDecay: 0, InvFreq: 1, Inversion: inv}
		k := New(model, cfg)
		rng := xrand.NewSeeded(33)
		x, y := makeBatch(rng, 64)
		logits := model.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy{}.Loss(logits, y)
		model.ZeroGrad()
		model.Backward(grad)
		k.AccumulateStats(64)
		if err := k.CommitCovariances(k.PendingCovariances(), 1); err != nil {
			t.Fatal(err)
		}
		if err := k.RefreshEigen(1); err != nil {
			t.Fatal(err)
		}
		v, err := k.Precondition(1)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := run(EigenDecomp)
	b := run(CholeskyInverse)
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	cos := dot / math.Sqrt(na*nb)
	if cos < 0.95 {
		t.Fatalf("inversion routes diverge: cosine %.3f", cos)
	}
}

func TestInversionString(t *testing.T) {
	if EigenDecomp.String() != "eigendecomposition" || CholeskyInverse.String() != "cholesky-inverse" {
		t.Fatal("Inversion.String mismatch")
	}
}

func TestShampooConverges(t *testing.T) {
	model := buildModel(60)
	s := NewShampoo(model, 1e-4, 5)
	if s.NumLayers() != 2 {
		t.Fatalf("shampoo layers %d", s.NumLayers())
	}
	rng := xrand.NewSeeded(61)
	loss := nn.SoftmaxCrossEntropy{}
	var first, last float64
	for i := 0; i < 80; i++ {
		x, y := makeBatch(rng, 32)
		logits := model.Forward(x, true)
		l, grad := loss.Loss(logits, y)
		if i == 0 {
			first = l
		}
		last = l
		model.ZeroGrad()
		model.Backward(grad)
		if err := s.Step(0.02); err != nil {
			t.Fatal(err)
		}
	}
	if last > first/3 {
		t.Fatalf("Shampoo did not converge: %g -> %g", first, last)
	}
}

func TestShampooGradientsCompressLikeKFACs(t *testing.T) {
	// COMPSO's pipeline applies unchanged to Shampoo-preconditioned
	// gradients: same shapes, bounded error round trip.
	model := buildModel(62)
	s := NewShampoo(model, 1e-4, 1)
	rng := xrand.NewSeeded(63)
	x, y := makeBatch(rng, 32)
	logits := model.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy{}.Loss(logits, y)
	model.ZeroGrad()
	model.Backward(grad)
	vals, err := s.Precondition(1)
	if err != nil {
		t.Fatal(err)
	}
	comp := compress.NewCOMPSO(64)
	blob, err := comp.Compress(vals)
	if err != nil {
		t.Fatal(err)
	}
	out, err := comp.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if e := math.Abs(float64(out[i] - vals[i])); e > comp.MaxError()+1e-7 {
			t.Fatalf("error %g at %d", e, i)
		}
	}
}

func TestInverseFourthRoot(t *testing.T) {
	// (m+εI)^{-1/4} to the fourth power times (m+εI) must be identity.
	rng := xrand.NewSeeded(65)
	b := tensor.New(5, 5)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	m := tensor.New(0, 0).TMatMul(b, b)
	const eps = 1e-6
	root, err := inverseFourthRoot(m, eps)
	if err != nil {
		t.Fatal(err)
	}
	r2 := tensor.New(0, 0).MatMul(root, root)
	r4 := tensor.New(0, 0).MatMul(r2, r2)
	damped := m.Clone().Symmetrize().AddDiag(eps)
	prod := tensor.New(0, 0).MatMul(r4, damped)
	id := tensor.Identity(5)
	for i := range id.Data {
		if math.Abs(prod.Data[i]-id.Data[i]) > 1e-6 {
			t.Fatalf("root⁴·m != I at %d: %g", i, prod.Data[i])
		}
	}
}

func TestWarmupUsesRawGradient(t *testing.T) {
	// During warmup the update must equal a plain (clipped) gradient step:
	// two models, one with huge damping (useless preconditioner) and one
	// with tiny damping, must take identical steps while warming up.
	run := func(damping float64) []float64 {
		model := buildModel(90)
		cfg := Config{Damping: damping, StatDecay: 0.95, InvFreq: 1, WarmupSteps: 5}
		k := New(model, cfg)
		rng := xrand.NewSeeded(91)
		for i := 0; i < 3; i++ { // stays inside warmup
			x, y := makeBatch(rng, 16)
			logits := model.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy{}.Loss(logits, y)
			model.ZeroGrad()
			model.Backward(grad)
			if err := k.Step(16, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		var out []float64
		for _, p := range model.Params() {
			out = append(out, p.W.Data...)
		}
		return out
	}
	a := run(1e-6)
	b := run(1e3)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("warmup updates depend on damping at %d: %g vs %g", i, a[i], b[i])
		}
	}
}
