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

	lastNorm *tensor.Matrix // normalized input
	lastStd  []float64      // per-row stddev
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
	out := output(train, x.Rows, x.Cols)
	norm := tensor.New(x.Rows, x.Cols)
	stds := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*x.Cols : (i+1)*x.Cols]
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var varSum float64
		for _, v := range row {
			d := v - mean
			varSum += d * d
		}
		std := math.Sqrt(varSum/float64(len(row)) + ln.eps)
		stds[i] = std
		for j, v := range row {
			nv := (v - mean) / std
			norm.Data[i*x.Cols+j] = nv
			out.Data[i*x.Cols+j] = nv*ln.Gamma.W.Data[j] + ln.Beta.W.Data[j]
		}
	}
	if train {
		ln.lastNorm = norm
		ln.lastStd = stds
	}
	return out
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if ln.lastNorm == nil || gradOut.Rows != ln.lastNorm.Rows || gradOut.Cols != ln.Dim {
		panic("nn: LayerNorm.Backward shape mismatch")
	}
	n := float64(ln.Dim)
	gradIn := tensor.New(gradOut.Rows, gradOut.Cols)
	for i := 0; i < gradOut.Rows; i++ {
		gRow := gradOut.Data[i*ln.Dim : (i+1)*ln.Dim]
		nRow := ln.lastNorm.Data[i*ln.Dim : (i+1)*ln.Dim]
		// Parameter gradients.
		for j, g := range gRow {
			ln.Gamma.Grad.Data[j] += g * nRow[j]
			ln.Beta.Grad.Data[j] += g
		}
		// Input gradient: standard layer-norm backward.
		var sumG, sumGN float64
		for j, g := range gRow {
			gh := g * ln.Gamma.W.Data[j]
			sumG += gh
			sumGN += gh * nRow[j]
		}
		for j, g := range gRow {
			gh := g * ln.Gamma.W.Data[j]
			gradIn.Data[i*ln.Dim+j] = (gh - sumG/n - nRow[j]*sumGN/n) / ln.lastStd[i]
		}
	}
	return gradIn
}
