package nn

import (
	"math"

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
	if train {
		r.mask = resize(r.mask, len(x.Data))
	}
	for i, v := range x.Data {
		keep := v > 0
		if !keep {
			v = 0
		}
		out.Data[i] = v
		if train {
			r.mask[i] = keep
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if len(r.mask) != len(gradOut.Data) {
		panic("nn: ReLU.Backward shape mismatch with cached mask")
	}
	out := reuse(&r.gradIn, gradOut.Rows, gradOut.Cols)
	for i, g := range gradOut.Data {
		if !r.mask[i] {
			g = 0
		}
		out.Data[i] = g
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
	return 0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x)))
}

func geluGrad(x float64) float64 {
	inner := geluC * (x + 0.044715*x*x*x)
	t := math.Tanh(inner)
	sech2 := 1 - t*t
	return 0.5*(1+t) + 0.5*x*sech2*geluC*(1+3*0.044715*x*x)
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

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	lastOutput  *tensor.Matrix
	out, gradIn tensor.Matrix
}

// NewTanh returns a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := output(&t.out, train, x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	if train {
		t.lastOutput = reuse(t.lastOutput, out.Rows, out.Cols)
		copy(t.lastOutput.Data, out.Data)
	}
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if t.lastOutput == nil || len(t.lastOutput.Data) != len(gradOut.Data) {
		panic("nn: Tanh.Backward shape mismatch")
	}
	out := reuse(&t.gradIn, gradOut.Rows, gradOut.Cols)
	for i, y := range t.lastOutput.Data {
		out.Data[i] = gradOut.Data[i] * (1 - y*y)
	}
	return out
}
