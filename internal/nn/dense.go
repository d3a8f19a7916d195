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

	lastInput  *tensor.Matrix // cached [x 1], batch×(In+1)
	lastGradPA *tensor.Matrix // cached pre-activation gradient, batch×Out
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

// appendOnes returns [x 1]: x with a trailing column of ones, in dst's
// storage when reuse finds room there.
func appendOnes(dst, x *tensor.Matrix) *tensor.Matrix {
	out := reuse(dst, x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		copy(out.Data[i*out.Cols:], x.Data[i*x.Cols:(i+1)*x.Cols])
		out.Data[i*out.Cols+x.Cols] = 1
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
		d.lastInput = appendOnes(d.lastInput, x)
		withBias, out = d.lastInput, &d.out
	} else {
		withBias, out = appendOnes(scratch(x.Rows, d.In+1), x), scratch(x.Rows, d.Out)
		defer release(withBias)
	}
	return out.MatMul(withBias, d.Weight.W)
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if d.lastInput == nil {
		panic("nn: Dense.Backward before training-mode Forward")
	}
	if gradOut.Rows != d.lastInput.Rows || gradOut.Cols != d.Out {
		panic(fmt.Sprintf("nn: %s Backward got %dx%d", d.Name(), gradOut.Rows, gradOut.Cols))
	}
	d.lastGradPA = reuse(d.lastGradPA, gradOut.Rows, gradOut.Cols)
	copy(d.lastGradPA.Data, gradOut.Data)
	// ∂L/∂W = [x 1]ᵀ · gradOut.
	d.Weight.Grad.AXPY(1, d.gradW.TMatMul(d.lastInput, gradOut))
	// ∂L/∂x = gradOut · Wᵀ over the weight rows: the bias has no input.
	return d.gradIn.MatMul(gradOut, weightsT(&d.wT, d.Weight.W, d.In))
}

// weightsT stores the transpose of w's first rows rows — a combined
// weight+bias matrix without its bias row — into dst and returns dst. An
// input gradient is gradOut·Wᵀ, and MatMul against the explicit transpose
// skips the zeros a ReLU left in gradOut, with MatMulT's bits on finite
// input (DESIGN.md §5).
func weightsT(dst, w *tensor.Matrix, rows int) *tensor.Matrix {
	weights := tensor.Matrix{Rows: rows, Cols: w.Cols, Data: w.Data[:rows*w.Cols]}
	return dst.TransposeOf(&weights)
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
