package nn

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"compso/internal/tensor"
	"compso/internal/xrand"
)

// numericalGradCheck compares a layer's analytic parameter and input
// gradients against central finite differences through an MSE-style
// scalar loss sum(output²)/2.
func numericalGradCheck(t *testing.T, layer Layer, in *tensor.Matrix, tol float64) {
	t.Helper()
	lossOf := func(x *tensor.Matrix) float64 {
		out := layer.Forward(x, false)
		var s float64
		for _, v := range out.Data {
			s += v * v / 2
		}
		return s
	}
	// Analytic pass.
	out := layer.Forward(in, true)
	gradOut := out.Clone() // d(sum o²/2)/do = o
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	gradIn := layer.Backward(gradOut)

	const h = 1e-5
	// Parameter gradients.
	for _, p := range layer.Params() {
		for i := 0; i < len(p.W.Data); i += 1 + len(p.W.Data)/25 { // sample entries
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			up := lossOf(in)
			p.W.Data[i] = orig - h
			down := lossOf(in)
			p.W.Data[i] = orig
			num := (up - down) / (2 * h)
			got := p.Grad.Data[i]
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s param %s[%d]: analytic %g vs numerical %g", layer.Name(), p.Name, i, got, num)
			}
		}
	}
	// Input gradients.
	for i := 0; i < len(in.Data); i += 1 + len(in.Data)/25 {
		orig := in.Data[i]
		in.Data[i] = orig + h
		up := lossOf(in)
		in.Data[i] = orig - h
		down := lossOf(in)
		in.Data[i] = orig
		num := (up - down) / (2 * h)
		got := gradIn.Data[i]
		if math.Abs(num-got) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s input[%d]: analytic %g vs numerical %g", layer.Name(), i, got, num)
		}
	}
}

func randomInput(rows, cols int, seed int64) *tensor.Matrix {
	rng := xrand.NewSeeded(seed)
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 1, xrand.NewSeeded(1))
	// W = [[2],[3]], bias = 1.
	d.Weight.W.Data[0] = 2
	d.Weight.W.Data[1] = 3
	d.Weight.W.Data[2] = 1
	out := d.Forward(tensor.FromSlice(1, 2, []float64{10, 100}), false)
	if got := out.At(0, 0); got != 10*2+100*3+1 {
		t.Fatalf("dense out = %g, want 321", got)
	}
}

func TestDenseGradCheck(t *testing.T) {
	d := NewDense(5, 3, xrand.NewSeeded(2))
	numericalGradCheck(t, d, randomInput(4, 5, 3), 1e-5)
}

func TestConv2DGradCheck(t *testing.T) {
	c := NewConv2D(2, 6, 6, 3, 3, xrand.NewSeeded(4))
	numericalGradCheck(t, c, randomInput(2, 2*6*6, 5), 1e-4)
}

func TestConv2DOutputShape(t *testing.T) {
	c := NewConv2D(3, 8, 8, 4, 3, xrand.NewSeeded(6))
	out := c.Forward(randomInput(5, 3*8*8, 7), false)
	if out.Rows != 5 || out.Cols != 4*6*6 {
		t.Fatalf("conv out %dx%d, want 5x%d", out.Rows, out.Cols, 4*6*6)
	}
}

func TestReLUGradCheck(t *testing.T) {
	// Shift inputs away from 0 to avoid the kink in finite differences.
	in := randomInput(3, 7, 8)
	for i := range in.Data {
		if math.Abs(in.Data[i]) < 0.1 {
			in.Data[i] += 0.2
		}
	}
	numericalGradCheck(t, NewReLU(), in, 1e-5)
}

// reluForwardBranchy and reluBackwardBranchy are ReLU's loops as they stood
// before the mask was taken from the bits, kept verbatim as the oracle of
// TestReLUMatchesBranchyLoops.
func reluForwardBranchy(x, out []float64, mask []bool) {
	for i, v := range x {
		keep := v > 0
		if !keep {
			v = 0
		}
		out[i] = v
		mask[i] = keep
	}
}

func reluBackwardBranchy(gradOut, out []float64, mask []bool) {
	for i, g := range gradOut {
		if !mask[i] {
			g = 0
		}
		out[i] = g
	}
}

// TestReLUMatchesBranchyLoops holds ReLU to the branchy loops bit for bit,
// in both directions, training and evaluation, with NaNs of both signs,
// ±Inf, ±0, denormals and the extremes planted among Gaussian values.
func TestReLUMatchesBranchyLoops(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000001),
		5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1, -1,
	}
	bitsOf := func(s []float64) []uint64 {
		b := make([]uint64, len(s))
		for i, v := range s {
			b[i] = math.Float64bits(v)
		}
		return b
	}
	x, g := randomInput(7, 13, 21), randomInput(7, 13, 22)
	for i, v := range specials {
		x.Data[i*5] = v
		g.Data[i*5+2] = v
		g.Data[len(g.Data)-1-i] = v
	}
	copy(x.Data[len(x.Data)-len(specials):], specials)

	wantOut, wantGrad := make([]float64, len(x.Data)), make([]float64, len(x.Data))
	mask := make([]bool, len(x.Data))
	reluForwardBranchy(x.Data, wantOut, mask)
	reluBackwardBranchy(g.Data, wantGrad, mask)

	r := NewReLU()
	eval := bitsOf(r.Forward(x, false).Data)
	out := bitsOf(r.Forward(x, true).Data)
	for i, w := range bitsOf(wantOut) {
		if out[i] != w || eval[i] != w || r.mask[i] != mask[i] {
			t.Fatalf("Forward(%g) at %d = %#x (eval %#x, mask %v), want %#x (mask %v)", x.Data[i], i, out[i], eval[i], r.mask[i], w, mask[i])
		}
	}
	grad := bitsOf(r.Backward(g).Data)
	for i, w := range bitsOf(wantGrad) {
		if grad[i] != w {
			t.Fatalf("Backward(%g) at %d under input %g = %#x, want %#x", g.Data[i], i, x.Data[i], grad[i], w)
		}
	}
}

func TestGELUGradCheck(t *testing.T) {
	numericalGradCheck(t, NewGELU(), randomInput(3, 7, 9), 1e-4)
}

func TestSoftmaxCrossEntropyGradCheck(t *testing.T) {
	logits := randomInput(4, 5, 14)
	targets := tensor.FromSlice(4, 1, []float64{0, 3, 2, 4})
	loss := SoftmaxCrossEntropy{}
	base, grad := loss.Loss(logits, targets)
	if base <= 0 {
		t.Fatalf("loss = %g, want > 0", base)
	}
	const h = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		up, _ := loss.Loss(logits, targets)
		logits.Data[i] = orig - h
		down, _ := loss.Loss(logits, targets)
		logits.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("xent grad[%d]: analytic %g vs numerical %g", i, grad.Data[i], num)
		}
	}
}

// LossInto is Loss into the caller's storage: into a gradient of another
// shape, larger and smaller, every element NaN, it gives Loss's bits, and
// with no gradient at all the same loss.
func TestLossIntoMatchesLoss(t *testing.T) {
	logits := randomInput(6, 5, 21)
	cases := []struct {
		loss    Loss
		targets *tensor.Matrix
	}{
		{SoftmaxCrossEntropy{}, tensor.FromSlice(6, 1, []float64{0, 3, 2, 4, 1, 1})},
		{MSE{}, randomInput(6, 5, 22)},
	}
	for _, c := range cases {
		want, wantGrad := c.loss.Loss(logits, c.targets)
		for _, dims := range [][2]int{{9, 11}, {1, 2}} {
			grad := tensor.New(dims[0], dims[1])
			for i := range grad.Data {
				grad.Data[i] = math.NaN()
			}
			got := c.loss.LossInto(logits, c.targets, grad)
			if math.Float64bits(got) != math.Float64bits(want) || !reflect.DeepEqual(grad, wantGrad) {
				t.Fatalf("%s into %dx%d: LossInto differs from Loss", c.loss.Name(), dims[0], dims[1])
			}
		}
		if got := c.loss.LossInto(logits, c.targets, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: loss %v without a gradient, %v with one", c.loss.Name(), got, want)
		}
	}
}

func TestMSEGradCheck(t *testing.T) {
	pred := randomInput(3, 4, 15)
	targets := randomInput(3, 4, 16)
	base, grad := MSE{}.Loss(pred, targets)
	if base < 0 {
		t.Fatalf("MSE loss %g < 0", base)
	}
	const h = 1e-6
	for i := range pred.Data {
		orig := pred.Data[i]
		pred.Data[i] = orig + h
		up, _ := MSE{}.Loss(pred, targets)
		pred.Data[i] = orig - h
		down, _ := MSE{}.Loss(pred, targets)
		pred.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("MSE grad[%d]: analytic %g vs numerical %g", i, grad.Data[i], num)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float64{1, 0, 0, 1, 2, 1})
	targets := tensor.FromSlice(3, 1, []float64{0, 1, 1})
	if got := Accuracy(logits, targets); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %g, want 2/3", got)
	}
}

func TestSequentialTrainsOnBlobs(t *testing.T) {
	// End-to-end sanity: a 2-layer MLP must fit a separable 3-class problem
	// with plain gradient descent.
	rng := xrand.NewSeeded(17)
	model := NewSequential(
		NewDense(2, 16, rng),
		NewReLU(),
		NewDense(16, 3, rng),
	)
	loss := SoftmaxCrossEntropy{}
	centers := [][2]float64{{2, 0}, {-2, 2}, {0, -3}}
	makeBatch := func(n int) (*tensor.Matrix, *tensor.Matrix) {
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
	var first, last float64
	for iter := 0; iter < 200; iter++ {
		x, y := makeBatch(32)
		logits := model.Forward(x, true)
		l, grad := loss.Loss(logits, y)
		if iter == 0 {
			first = l
		}
		last = l
		model.ZeroGrad()
		model.Backward(grad)
		for _, p := range model.Params() {
			for i := range p.W.Data {
				p.W.Data[i] -= 0.1 * p.Grad.Data[i]
			}
		}
	}
	if last > first/3 {
		t.Fatalf("loss did not drop: %g -> %g", first, last)
	}
	x, y := makeBatch(200)
	if acc := Accuracy(model.Forward(x, false), y); acc < 0.95 {
		t.Fatalf("accuracy %g, want >= 0.95", acc)
	}
}

func TestKFACStatsShapes(t *testing.T) {
	rng := xrand.NewSeeded(18)
	model := NewSequential(
		NewDense(4, 6, rng),
		NewReLU(),
		NewDense(6, 2, rng),
	)
	x := randomInput(5, 4, 19)
	logits := model.Forward(x, true)
	_, grad := SoftmaxCrossEntropy{}.Loss(logits, tensor.FromSlice(5, 1, []float64{0, 1, 0, 1, 0}))
	model.Backward(grad)
	names, layers := model.KFACLayers()
	if len(layers) != 2 {
		t.Fatalf("found %d KFAC layers, want 2", len(layers))
	}
	if names[0] == names[1] {
		t.Fatal("KFAC layer names not unique")
	}
	// Feature-major: a row per feature, a column per example.
	a, g := layers[0].KFACStats()
	if a.Rows != 5 || a.Cols != 5 { // in+1 features
		t.Fatalf("act stats %dx%d, want 5x5", a.Rows, a.Cols)
	}
	if g.Rows != 6 || g.Cols != 5 {
		t.Fatalf("grad stats %dx%d, want 6x5", g.Rows, g.Cols)
	}
	for j := 0; j < a.Cols; j++ {
		if a.At(0, j) != x.At(j, 0) || a.At(4, j) != 1 {
			t.Fatalf("act stats column %d is not [x 1] of example %d", j, j)
		}
	}
	if p := layers[0].KFACParam(); p.W.Rows != 5 || p.W.Cols != 6 {
		t.Fatalf("KFAC param %dx%d, want 5x6", p.W.Rows, p.W.Cols)
	}
}

// A convolution's statistics have a column per output position of every
// example: the patch matrix's rows are the kernel offsets plus the bias's
// ones, the gradient's the output channels.
func TestConvKFACStatsColumnsArePositions(t *testing.T) {
	c := NewConv2D(1, 5, 5, 2, 3, xrand.NewSeeded(20))
	x := randomInput(3, 25, 21)
	out := c.Forward(x, true)
	c.Backward(out.Clone())
	a, g := c.KFACStats()
	positions := 3 * 3 // (5-3+1)²
	if a.Rows != 3*3+1 || g.Rows != 2 {
		t.Fatalf("stats rows %d/%d, want %d/%d", a.Rows, g.Rows, 3*3+1, 2)
	}
	if a.Cols != 3*positions || g.Cols != 3*positions {
		t.Fatalf("stats columns %d/%d, want %d", a.Cols, g.Cols, 3*positions)
	}
	// Example 1's output position (1, 2) sees pixel (1+ky, 2+kx) at kernel
	// offset (ky, kx); its gradient is that example's output there.
	col := 1*positions + 1*3 + 2
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			if got, want := a.At(ky*3+kx, col), x.At(1, (1+ky)*5+2+kx); got != want {
				t.Fatalf("patch (%d,%d) of column %d = %g, want %g", ky, kx, col, got, want)
			}
		}
	}
	for ch := 0; ch < 2; ch++ {
		if got, want := g.At(ch, col), out.At(1, ch*positions+1*3+2); got != want || a.At(9, col) != 1 {
			t.Fatalf("channel %d of column %d = %g, want %g", ch, col, got, want)
		}
	}
}

// Sequential.Backward leaves out the first layer's input gradient and
// nothing else: after two steps (the second on the first's storage) every
// parameter gradient and every K-FAC statistic is the full backward's —
// each layer's Backward in reverse — bit for bit, for a model whose first
// layer is a Conv2D (ProxyResNet's shapes) and one whose first is a Dense;
// and the first layer never allocated its input gradient.
func TestBackwardLeavesOutOnlyTheFirstInputGradient(t *testing.T) {
	models := []struct {
		name  string
		build func() *Sequential
		in    int
	}{
		{"conv-first", func() *Sequential {
			rng := xrand.NewSeeded(30)
			return NewSequential(NewConv2D(1, 10, 10, 6, 3, rng), NewReLU(),
				NewConv2D(6, 8, 8, 8, 3, rng), NewReLU(), NewDense(8*6*6, 10, rng))
		}, 100},
		{"dense-first", func() *Sequential {
			rng := xrand.NewSeeded(31)
			return NewSequential(NewDense(24, 16, rng), NewReLU(), NewDense(16, 5, rng))
		}, 24},
	}
	for _, m := range models {
		short, full := m.build(), m.build()
		for step := range 2 {
			x := randomInput(32, m.in, int64(40+step))
			gradOut := randomInput(32, short.Forward(x, true).Cols, int64(50+step))
			short.Backward(gradOut)
			full.Forward(x, true)
			g := gradOut
			for i := len(full.Layers) - 1; i >= 0; i-- {
				g = full.Layers[i].Backward(g)
			}
		}
		sameBits := func(what string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d values, want %d", m.name, what, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s: element %d = %g, want %g", m.name, what, i, got[i], want[i])
				}
			}
		}
		fullParams := full.Params()
		for i, p := range short.Params() {
			sameBits(p.Name+" gradient", p.Grad.Data, fullParams[i].Grad.Data)
		}
		_, shortLayers := short.KFACLayers()
		_, fullLayers := full.KFACLayers()
		for i, l := range shortLayers {
			act, grad := l.KFACStats()
			wantAct, wantGrad := fullLayers[i].KFACStats()
			sameBits(fmt.Sprintf("layer %d K-FAC activations", i), act.Data, wantAct.Data)
			sameBits(fmt.Sprintf("layer %d K-FAC gradients", i), grad.Data, wantGrad.Data)
		}
		switch first := short.Layers[0].Layer.(type) {
		case *Conv2D:
			if first.gradCols.Data != nil || first.gradIn.Data != nil {
				t.Errorf("%s: the first Conv2D computed its input gradient", m.name)
			}
		case *Dense:
			if first.gradIn.Data != nil || first.wT.Data != nil {
				t.Errorf("%s: the first Dense computed its input gradient", m.name)
			}
		}
	}
}

func TestDenseShapePanics(t *testing.T) {
	d := NewDense(3, 2, xrand.NewSeeded(23))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width Forward did not panic")
		}
	}()
	d.Forward(tensor.New(1, 4), false)
}

func TestSelfAttentionGradCheck(t *testing.T) {
	a := NewSelfAttention(4, 6, 2, xrand.NewSeeded(40))
	numericalGradCheck(t, a, randomInput(2, 4*6, 41), 2e-4)
}

func TestSelfAttentionShapes(t *testing.T) {
	a := NewSelfAttention(5, 8, 4, xrand.NewSeeded(42))
	out := a.Forward(randomInput(3, 40, 43), false)
	if out.Rows != 3 || out.Cols != 40 {
		t.Fatalf("attention out %dx%d", out.Rows, out.Cols)
	}
	if len(a.Params()) != 4 {
		t.Fatalf("attention params %d, want 4", len(a.Params()))
	}
}

func TestSelfAttentionBadDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim not divisible by heads did not panic")
		}
	}()
	NewSelfAttention(4, 6, 4, xrand.NewSeeded(44))
}

func TestSelfAttentionKFACDiscovery(t *testing.T) {
	rng := xrand.NewSeeded(45)
	model := NewSequential(
		NewSelfAttention(4, 8, 2, rng),
		NewMeanPool(4, 8),
		NewDense(8, 3, rng),
	)
	names, layers := model.KFACLayers()
	if len(layers) != 5 { // Wq, Wk, Wv, Wo, classifier
		t.Fatalf("found %d KFAC layers: %v", len(layers), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate KFAC layer name %q", n)
		}
		seen[n] = true
	}
}

func TestEmbeddingSeqGradCheck(t *testing.T) {
	e := NewEmbeddingSeq(8, 4, 5, xrand.NewSeeded(46))
	in := tensor.New(3, 5)
	rng := xrand.NewSeeded(47)
	for i := range in.Data {
		in.Data[i] = float64(rng.IntN(8))
	}
	// Embedding inputs are ids; only check parameter gradients.
	lossOf := func() float64 {
		out := e.Forward(in, false)
		var s float64
		for _, v := range out.Data {
			s += v * v / 2
		}
		return s
	}
	out := e.Forward(in, true)
	for _, p := range e.Params() {
		p.ZeroGrad()
	}
	e.Backward(out.Clone())
	const h = 1e-5
	for _, p := range e.Params() {
		for i := 0; i < len(p.W.Data); i += 1 + len(p.W.Data)/20 {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			up := lossOf()
			p.W.Data[i] = orig - h
			down := lossOf()
			p.W.Data[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %g vs numerical %g", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestSeqLayerNormGradCheck(t *testing.T) {
	ln := NewSeqLayerNorm(3, 5)
	numericalGradCheck(t, ln, randomInput(2, 15, 48), 1e-4)
}

func TestMeanPoolGradCheck(t *testing.T) {
	numericalGradCheck(t, NewMeanPool(4, 3), randomInput(3, 12, 49), 1e-5)
}

func TestTinyTransformerLearns(t *testing.T) {
	// A genuine (tiny) transformer — embedding + attention + LN + pool —
	// must fit a token-classification task.
	rng := xrand.NewSeeded(50)
	const vocab, seq, dim, classes = 12, 6, 8, 3
	model := NewSequential(
		NewEmbeddingSeq(vocab, dim, seq, rng),
		NewSelfAttention(seq, dim, 2, rng),
		NewSeqLayerNorm(seq, dim),
		NewMeanPool(seq, dim),
		NewDense(dim, classes, rng),
	)
	loss := SoftmaxCrossEntropy{}
	sample := func(n int) (*tensor.Matrix, *tensor.Matrix) {
		x := tensor.New(n, seq)
		y := tensor.New(n, 1)
		for i := 0; i < n; i++ {
			cls := rng.IntN(classes)
			y.Data[i] = float64(cls)
			for s := 0; s < seq; s++ {
				// Class determines which token triple dominates.
				x.Data[i*seq+s] = float64(cls*4 + rng.IntN(4))
			}
		}
		return x, y
	}
	var first, last float64
	for it := 0; it < 200; it++ {
		x, y := sample(32)
		logits := model.Forward(x, true)
		l, grad := loss.Loss(logits, y)
		if it == 0 {
			first = l
		}
		last = l
		model.ZeroGrad()
		model.Backward(grad)
		for _, p := range model.Params() {
			for j := range p.W.Data {
				p.W.Data[j] -= 0.05 * p.Grad.Data[j]
			}
		}
	}
	if last > first/3 {
		t.Fatalf("transformer did not learn: %g -> %g", first, last)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	build := func(seed int64) *Sequential {
		rng := xrand.NewSeeded(seed)
		return NewSequential(
			NewDense(4, 8, rng),
			NewReLU(),
			NewDense(8, 3, rng),
		)
	}
	src := build(70)
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	dst := build(71) // different init
	if err := Load(dst, &buf); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].W.Data {
			if sp[i].W.Data[j] != dp[i].W.Data[j] {
				t.Fatalf("param %d[%d] differs after load", i, j)
			}
		}
	}
	// Identical predictions.
	x := randomInput(3, 4, 72)
	a := src.Forward(x, false)
	b := dst.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestCheckpointMismatchErrors(t *testing.T) {
	rng := xrand.NewSeeded(73)
	src := NewSequential(NewDense(4, 8, rng))
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// Wrong shape.
	other := NewSequential(NewDense(4, 9, xrand.NewSeeded(74)))
	if err := Load(other, bytes.NewReader(saved)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Wrong parameter count.
	two := NewSequential(NewDense(4, 8, rng), NewDense(8, 2, rng))
	if err := Load(two, bytes.NewReader(saved)); err == nil {
		t.Fatal("count mismatch accepted")
	}
	// Truncated stream.
	same := NewSequential(NewDense(4, 8, xrand.NewSeeded(75)))
	if err := Load(same, bytes.NewReader(saved[:len(saved)/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	// Garbage magic.
	if err := Load(same, bytes.NewReader([]byte("not a checkpoint at all"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}
