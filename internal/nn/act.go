package nn

import (
	"math"
	"math/bits"

	"compso/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
	// The training output and input gradient it hands out (Layer).
	out, gradIn tensor.Matrix
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := output(&r.out, train, x.Rows, x.Cols)
	var mask []bool
	if train {
		r.mask = resize(r.mask, len(x.Data))
		mask = r.mask[:len(x.Data)]
	}
	od := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		keep := reluKeep(v)
		od[i] = math.Float64frombits(math.Float64bits(v) & keep)
		if train {
			mask[i] = keep != 0
		}
	}
	return out
}

// reluKeep is all ones when v > 0 and zero otherwise, NaN and ±0 included,
// computed on the bits without a branch: rectified inputs are negative about
// every other element, and a branch on them mispredicts about as often.
// v > 0 holds iff 0 < bits ≤ the bits of +Inf, that is iff bits−1, as an
// unsigned integer, is below them: the borrow of that subtraction.
func reluKeep(v float64) uint64 {
	_, borrow := bits.Sub64(math.Float64bits(v)-1, math.Float64bits(math.Inf(1)), 0)
	return -borrow
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if len(r.mask) != len(gradOut.Data) {
		panic("nn: ReLU.Backward shape mismatch with cached mask")
	}
	out := reuse(&r.gradIn, gradOut.Rows, gradOut.Cols)
	mask, od := r.mask[:len(gradOut.Data)], out.Data[:len(gradOut.Data)]
	for i, g := range gradOut.Data {
		var keep uint64 // 0 or 1 from the mask's byte, not a branch
		if mask[i] {
			keep = 1
		}
		od[i] = math.Float64frombits(math.Float64bits(g) & -keep)
	}
	return out
}

// GELU is the Gaussian error linear unit (tanh approximation), the
// transformer-standard activation.
type GELU struct {
	lastInput   *tensor.Matrix
	out, gradIn tensor.Matrix
}

// NewGELU returns a GELU layer.
func NewGELU() *GELU { return &GELU{} }

// Name implements Layer.
func (g *GELU) Name() string { return "gelu" }

// Params implements Layer.
func (g *GELU) Params() []*Param { return nil }

const geluC = 0.7978845608028654 // sqrt(2/pi)

func gelu(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluC*(x+float64(0.044715*x*x*x))))
}

func geluGrad(x float64) float64 {
	inner := geluC * (x + float64(0.044715*x*x*x))
	t := math.Tanh(inner)
	sech2 := 1 - float64(t*t)
	return float64(0.5*(1+t)) + float64(0.5*x*sech2*geluC*(1+float64(3*0.044715*x*x)))
}

// Forward implements Layer.
func (g *GELU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		g.lastInput = reuse(g.lastInput, x.Rows, x.Cols)
		copy(g.lastInput.Data, x.Data)
	}
	out := output(&g.out, train, x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = gelu(v)
	}
	return out
}

// Backward implements Layer.
func (g *GELU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if g.lastInput == nil || len(g.lastInput.Data) != len(gradOut.Data) {
		panic("nn: GELU.Backward shape mismatch")
	}
	out := reuse(&g.gradIn, gradOut.Rows, gradOut.Cols)
	for i, v := range g.lastInput.Data {
		out.Data[i] = gradOut.Data[i] * geluGrad(v)
	}
	return out
}
