package nn

import (
	"fmt"
	"math"

	"compso/internal/tensor"
)

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies a learned per-feature affine (gamma, beta). It is updated by the
// first-order path only — matching the distributed K-FAC systems the paper
// builds on, which precondition the dense/conv layers and leave norm
// parameters to SGD.
type LayerNorm struct {
	Dim   int
	Gamma *Param // 1×Dim
	Beta  *Param // 1×Dim
	eps   float64

	lastNorm    *tensor.Matrix // normalized input
	lastStd     []float64      // per-row stddev
	out, gradIn tensor.Matrix  // handed out (Layer)
}

// NewLayerNorm creates a LayerNorm over rows of width dim.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Gamma: newParam(fmt.Sprintf("ln%d.gamma", dim), 1, dim),
		Beta:  newParam(fmt.Sprintf("ln%d.beta", dim), 1, dim),
		eps:   1e-5,
	}
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] = 1
	}
	return ln
}

// Name implements Layer.
func (ln *LayerNorm) Name() string { return fmt.Sprintf("layernorm(%d)", ln.Dim) }

// Params implements Layer.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// Forward implements Layer.
func (ln *LayerNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != ln.Dim {
		panic(fmt.Sprintf("nn: %s fed width %d", ln.Name(), x.Cols))
	}
	out := output(&ln.out, train, x.Rows, x.Cols)
	var norm, stds []float64
	if train {
		ln.lastNorm = reuse(ln.lastNorm, x.Rows, x.Cols)
		ln.lastStd = resize(ln.lastStd, x.Rows)
		norm, stds = ln.lastNorm.Data, ln.lastStd
	}
	normalize(x.Data, out.Data, norm, stds, ln.Dim, ln.eps, ln.Gamma, ln.Beta)
	return out
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if ln.lastNorm == nil || gradOut.Rows != ln.lastNorm.Rows || gradOut.Cols != ln.Dim {
		panic("nn: LayerNorm.Backward shape mismatch")
	}
	gradIn := reuse(&ln.gradIn, gradOut.Rows, gradOut.Cols)
	normalizeBackward(gradOut.Data, gradIn.Data, ln.lastNorm.Data, ln.lastStd, ln.Dim, ln.Gamma, ln.Beta)
	return gradIn
}

// normalize writes the layer norm of every dim-wide block of x into out,
// followed by the per-feature affine (gamma, beta). Training passes norm
// and stds to keep each block's normalized values and standard deviation
// for normalizeBackward; evaluation passes nil and keeps nothing.
func normalize(x, out, norm, stds []float64, dim int, eps float64, gamma, beta *Param) {
	g, b := gamma.W.Data, beta.W.Data
	for r := 0; r < len(x)/dim; r++ {
		blk := x[r*dim : (r+1)*dim]
		var mean float64
		for _, v := range blk {
			mean += v
		}
		mean /= float64(dim)
		var varSum float64
		for _, v := range blk {
			d := v - mean
			varSum += d * d
		}
		std := math.Sqrt(varSum/float64(dim) + eps)
		dst := out[r*dim : (r+1)*dim]
		if norm == nil {
			for j, v := range blk {
				dst[j] = (v-mean)/std*g[j] + b[j]
			}
			continue
		}
		stds[r] = std
		nrm := norm[r*dim : (r+1)*dim]
		for j, v := range blk {
			nv := (v - mean) / std
			nrm[j] = nv
			dst[j] = nv*g[j] + b[j]
		}
	}
}

// normalizeBackward is normalize's backward pass: it accumulates gamma's
// and beta's gradients and writes the input gradient into gradIn.
func normalizeBackward(gradOut, gradIn, norm, stds []float64, dim int, gamma, beta *Param) {
	n := float64(dim)
	g := gamma.W.Data
	for r := 0; r < len(gradOut)/dim; r++ {
		gRow := gradOut[r*dim : (r+1)*dim]
		nRow := norm[r*dim : (r+1)*dim]
		// Parameter gradients.
		for j, gv := range gRow {
			gamma.Grad.Data[j] += gv * nRow[j]
			beta.Grad.Data[j] += gv
		}
		// Input gradient: standard layer-norm backward.
		var sumG, sumGN float64
		for j, gv := range gRow {
			gh := gv * g[j]
			sumG += gh
			sumGN += gh * nRow[j]
		}
		dst := gradIn[r*dim : (r+1)*dim]
		for j, gv := range gRow {
			gh := gv * g[j]
			dst[j] = (gh - sumG/n - nRow[j]*sumGN/n) / stds[r]
		}
	}
}
