package kfac

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

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
// nothing.
func TestPreconditionAllocatesOnlyItsPayload(t *testing.T) {
	model := buildModel(11)
	k := New(model, DefaultConfig())
	x, y := makeBatch(xrand.NewSeeded(12), 8)
	_, grad := nn.SoftmaxCrossEntropy{}.Loss(model.Forward(x, true), y)
	model.Backward(grad)
	if err := k.Step(8, 0.02); err != nil {
		t.Fatal(err)
	}
	for i := range k.layers {
		var vals []float32
		if n := testing.AllocsPerRun(3, func() { vals, _ = k.Precondition(i) }); n > 1 {
			t.Errorf("layer %d: Precondition allocated %.0f objects, want only its payload", i, n)
		}
		if n := testing.AllocsPerRun(3, func() { _ = k.SetPreconditioned(i, vals) }); n > 0 {
			t.Errorf("layer %d: SetPreconditioned allocated %.0f objects, want none", i, n)
		}
	}
	if err := k.ApplyUpdate(0.02); err != nil {
		t.Fatal(err)
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
	kron := kron(l.A.Clone().Symmetrize(), l.G.Clone().Symmetrize())
	for i := 0; i < kron.Rows; i++ {
		kron.Data[i*kron.Cols+i] += 0.01
	}
	want := solveSPD(t, kron, l.layer.KFACParam().Grad.Data)
	for i := range want {
		if math.Abs(want[i]-float64(got[i])) > 1e-4*(1+math.Abs(want[i])) {
			t.Fatalf("precondition[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// solveSPD solves a·x = b for a symmetric positive-definite a through its
// Cholesky factor a = L·Lᵀ: the direct route that
// TestPreconditionMatchesDirectInverse holds the eigenbasis route to.
func solveSPD(t *testing.T, a *tensor.Matrix, b []float64) []float64 {
	t.Helper()
	n := a.Rows
	l := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.Data[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l.Data[i*n+k] * l.Data[j*n+k]
			}
			if i == j {
				if sum <= 0 {
					t.Fatalf("matrix not positive definite (pivot %d = %g)", i, sum)
				}
				l.Data[i*n+i] = math.Sqrt(sum)
			} else {
				l.Data[i*n+j] = sum / l.Data[j*n+j]
			}
		}
	}
	x := append([]float64(nil), b...)
	for i := 0; i < n; i++ { // L·y = b
		for k := 0; k < i; k++ {
			x[i] -= l.Data[i*n+k] * x[k]
		}
		x[i] /= l.Data[i*n+i]
	}
	for i := n - 1; i >= 0; i-- { // Lᵀ·x = y
		for k := i + 1; k < n; k++ {
			x[i] -= l.Data[k*n+i] * x[k]
		}
		x[i] /= l.Data[i*n+i]
	}
	return x
}

// kron returns the Kronecker product a ⊗ b, the explicit Fisher block that
// TestPreconditionMatchesDirectInverse inverts as the oracle of the
// eigenbasis route.
func kron(a, b *tensor.Matrix) *tensor.Matrix {
	k := tensor.New(a.Rows*b.Rows, a.Cols*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			av := a.At(i, j)
			if av == 0 {
				continue
			}
			for p := 0; p < b.Rows; p++ {
				dst := k.Data[(i*b.Rows+p)*k.Cols+j*b.Cols : (i*b.Rows+p)*k.Cols+(j+1)*b.Cols]
				src := b.Data[p*b.Cols : (p+1)*b.Cols]
				for q, bv := range src {
					dst[q] = av * bv
				}
			}
		}
	}
	return k
}

func TestKronDims(t *testing.T) {
	a := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := tensor.FromSlice(2, 2, []float64{0, 1, 1, 0})
	k := kron(a, b)
	if k.Rows != 4 || k.Cols != 4 {
		t.Fatalf("kron dims = %dx%d, want 4x4", k.Rows, k.Cols)
	}
	// Spot-check block (0,1): a[0,1]*b = 2*b.
	if k.At(0, 3) != 2 || k.At(1, 2) != 2 || k.At(0, 2) != 0 {
		t.Fatalf("kron block wrong: %v", k)
	}
}

func TestKronMixedProductProperty(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD) — the identity K-FAC's factorization relies on.
	rng := xrand.NewSeeded(7)
	random := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	a, c, b, d := random(2, 3), random(3, 2), random(2, 2), random(2, 2)
	lhs := tensor.New(0, 0).MatMul(kron(a, b), kron(c, d))
	rhs := kron(tensor.New(0, 0).MatMul(a, c), tensor.New(0, 0).MatMul(b, d))
	for i := range lhs.Data {
		if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-10 {
			t.Fatalf("mixed-product property violated at %d: %g vs %g", i, lhs.Data[i], rhs.Data[i])
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

// TestRefreshEigenRejectsNonFiniteFactors: in eigendecomposition mode a
// poisoned factor must surface tensor.ErrNonFinite, with the layer's name,
// at once — not "failed to converge" after the QL iteration has spent its
// budget on every eigenvalue — and must leave no decomposition cached.
func TestRefreshEigenRejectsNonFiniteFactors(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		k := New(buildModel(9), DefaultConfig())
		l := k.layers[1]
		l.G.Data[1] = poison
		err := k.RefreshEigen(1)
		if !errors.Is(err, tensor.ErrNonFinite) || !strings.Contains(err.Error(), l.name) {
			t.Fatalf("poison %v: error %v, want tensor.ErrNonFinite naming layer %s", poison, err, l.name)
		}
		if l.eigA != nil || l.eigG != nil || k.EigenCached(1) {
			t.Fatalf("poison %v: decomposition cached despite the error", poison)
		}
	}
}

// TestRefreshEigenRejectsNonFiniteActivation: the same error must come up
// from the other end, a non-finite activation in a training batch. The
// factor product is symmetric (tensor.GramRows): beside a rectified zero the
// value stays out of the off-diagonal elements, but its square is on the
// diagonal.
func TestRefreshEigenRejectsNonFiniteActivation(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		model := buildModel(9)
		k := New(model, DefaultConfig())
		x, y := makeBatch(xrand.NewSeeded(5), 16)
		_, grad := nn.SoftmaxCrossEntropy{}.Loss(model.Forward(x, true), y)
		model.Backward(grad)
		// The second Dense layer's activations are rectified: find an
		// example (a column of the feature-major statistics) with a zero in
		// it and poison another feature of that example.
		l := k.layers[1]
		act, _ := l.layer.KFACStats()
		feature, example := -1, -1
		for j := 0; j < act.Cols && example < 0; j++ {
			for i := 0; i < act.Rows-1; i++ {
				if act.Data[i*act.Cols+j] == 0 {
					feature, example = (i+1)%(act.Rows-1), j
					break
				}
			}
		}
		if example < 0 {
			t.Fatal("no rectified zero in the batch")
		}
		act.Data[feature*act.Cols+example] = poison
		k.AccumulateStats(16)
		if err := k.CommitCovariances(k.PendingCovariances(), 1); err != nil {
			t.Fatal(err)
		}
		err := k.RefreshEigen(1)
		if !errors.Is(err, tensor.ErrNonFinite) || !strings.Contains(err.Error(), l.name) {
			t.Fatalf("poison %v: error %v, want tensor.ErrNonFinite naming layer %s", poison, err, l.name)
		}
	}
}
