package nn

import (
	"fmt"
	"math/rand/v2"

	"compso/internal/tensor"
)

// Dense is a fully connected layer y = [x 1]·W, with the bias folded into
// the last row of W ((in+1)×out). The homogeneous-coordinate form is the
// one K-FAC operates on: the activation factor A then covers weights and
// bias together, as in the reference distributed K-FAC implementations.
type Dense struct {
	In, Out int
	// Weight is the (In+1)×Out combined weight+bias matrix.
	Weight *Param

	// The K-FAC statistics, feature-major: [x 1]ᵀ, (In+1)×batch, and the
	// pre-activation gradient's transpose, Out×batch.
	lastInput  *tensor.Matrix
	lastGradPA *tensor.Matrix
	// Backward's temporaries, and the output and input gradient it hands
	// out (Layer). Like the two caches above they are reused from step to
	// step and collected with the layer.
	gradW, wT   tensor.Matrix
	out, gradIn tensor.Matrix
}

// NewDense creates a Dense layer with He-initialized weights and zero bias.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, Weight: newParam(fmt.Sprintf("dense%dx%d", in, out), in+1, out)}
	initMatrix(d.Weight.W, in, rng)
	// Zero the bias row.
	for j := 0; j < out; j++ {
		d.Weight.W.Data[in*out+j] = 0
	}
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight} }

// appendOnesT returns [x 1]ᵀ: the transpose of x with a trailing row of
// ones, in dst's storage when reuse finds room there.
func appendOnesT(dst, x *tensor.Matrix) *tensor.Matrix {
	out := reuse(dst, x.Cols+1, x.Rows)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Data[i*x.Cols : (i+1)*x.Cols] {
			out.Data[j*x.Rows+i] = v
		}
	}
	ones := out.Data[x.Cols*x.Rows:]
	for i := range ones {
		ones[i] = 1
	}
	return out
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: %s fed %d features", d.Name(), x.Cols))
	}
	// Evaluation leaves the layer untouched and works in arena storage.
	var withBias, out *tensor.Matrix
	if train {
		d.lastInput = appendOnesT(d.lastInput, x)
		withBias, out = d.lastInput, &d.out
	} else {
		withBias, out = appendOnesT(scratch(d.In+1, x.Rows), x), scratch(x.Rows, d.Out)
		defer release(withBias)
	}
	// ([x 1]ᵀ)ᵀ·W, skipping the zeros of x as MatMul([x 1], W) would.
	return out.TMatMul(withBias, d.Weight.W)
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if d.lastInput == nil {
		panic("nn: Dense.Backward before training-mode Forward")
	}
	if gradOut.Rows != d.lastInput.Cols || gradOut.Cols != d.Out {
		panic(fmt.Sprintf("nn: %s Backward got %dx%d", d.Name(), gradOut.Rows, gradOut.Cols))
	}
	d.lastGradPA = reuse(d.lastGradPA, gradOut.Cols, gradOut.Rows).TransposeOf(gradOut)
	// ∂L/∂W = [x 1]ᵀ · gradOut.
	d.Weight.Grad.AXPY(1, d.gradW.MatMul(d.lastInput, gradOut))
	// ∂L/∂x = gradOut · Wᵀ over the weight rows (the bias has no input).
	// MatMul against the explicit transpose skips the zeros a ReLU left in
	// gradOut, with MatMulT's bits on finite input (DESIGN.md §5).
	weights := tensor.Matrix{Rows: d.In, Cols: d.Out, Data: d.Weight.W.Data[:d.In*d.Out]}
	return d.gradIn.MatMul(gradOut, d.wT.TransposeOf(&weights))
}

// KFACStats implements KFACLayer.
func (d *Dense) KFACStats() (act, grad *tensor.Matrix) {
	if d.lastInput == nil || d.lastGradPA == nil {
		panic("nn: Dense.KFACStats before Forward/Backward")
	}
	return d.lastInput, d.lastGradPA
}

// KFACParam implements KFACLayer.
func (d *Dense) KFACParam() *Param { return d.Weight }
