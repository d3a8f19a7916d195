package nn

import (
	"fmt"
	"math/rand/v2"

	"compso/internal/tensor"
)

// Conv2D is a 2-D convolution implemented via im2col: every receptive
// field becomes a row of an unrolled matrix, turning the convolution into
// a Dense-style GEMM over (kernel²·inChannels + 1) columns. That is also
// exactly how K-FAC treats convolutions: the activation factor A is built
// from the unrolled patch rows, the gradient factor G from the per-position
// pre-activation gradients (Grosse & Martens' KFC approximation).
//
// Inputs are batch×(C·H·W) matrices in CHW order; outputs are
// batch×(OutC·OH·OW) with OH = H−K+1 (valid padding, stride 1).
type Conv2D struct {
	InC, H, W  int
	OutC, K    int
	OH, OW     int
	Weight     *Param // (K·K·InC + 1) × OutC, bias in the last row
	lastCols   *tensor.Matrix
	lastGradPA *tensor.Matrix
	// Temporaries of a training-mode Forward (prod) and of Backward, and
	// the output and input gradient it hands out (Layer). Like the two
	// caches above they are reused from step to step and collected with the
	// layer.
	prod, gradW, wT, gradCols tensor.Matrix
	out, gradIn               tensor.Matrix
}

// NewConv2D creates a valid-padding stride-1 convolution layer.
func NewConv2D(inC, h, w, outC, k int, rng *rand.Rand) *Conv2D {
	if k > h || k > w {
		panic(fmt.Sprintf("nn: conv kernel %d larger than input %dx%d", k, h, w))
	}
	c := &Conv2D{
		InC: inC, H: h, W: w, OutC: outC, K: k,
		OH: h - k + 1, OW: w - k + 1,
		Weight: newParam(fmt.Sprintf("conv%dx%d", inC, outC), k*k*inC+1, outC),
	}
	initMatrix(c.Weight.W, k*k*inC, rng)
	for j := 0; j < outC; j++ {
		c.Weight.W.Data[k*k*inC*outC+j] = 0
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv(%dx%dx%d->%d,k%d)", c.InC, c.H, c.W, c.OutC, c.K)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight} }

// OutFeatures returns the flattened output width.
func (c *Conv2D) OutFeatures() int { return c.OutC * c.OH * c.OW }

// im2col unrolls a batch into (batch·OH·OW) × (K·K·InC + 1) patch rows
// with a trailing homogeneous one, in dst's storage when reuse finds room
// there.
func (c *Conv2D) im2col(dst, x *tensor.Matrix) *tensor.Matrix {
	positions := c.OH * c.OW
	cols := c.K*c.K*c.InC + 1
	out := reuse(dst, x.Rows*positions, cols)
	for b := 0; b < x.Rows; b++ {
		img := x.Data[b*x.Cols : (b+1)*x.Cols]
		for oy := 0; oy < c.OH; oy++ {
			for ox := 0; ox < c.OW; ox++ {
				row := out.Data[(b*positions+oy*c.OW+ox)*cols:]
				idx := 0
				for ch := 0; ch < c.InC; ch++ {
					chBase := ch * c.H * c.W
					for ky := 0; ky < c.K; ky++ {
						srcBase := chBase + (oy+ky)*c.W + ox
						copy(row[idx:idx+c.K], img[srcBase:srcBase+c.K])
						idx += c.K
					}
				}
				row[cols-1] = 1
			}
		}
	}
	return out
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != c.InC*c.H*c.W {
		panic(fmt.Sprintf("nn: %s fed %d features, want %d", c.Name(), x.Cols, c.InC*c.H*c.W))
	}
	// Evaluation leaves the layer untouched and works in arena storage.
	positions := c.OH * c.OW
	var colsM, prod, out *tensor.Matrix
	if train {
		c.lastCols = c.im2col(c.lastCols, x)
		colsM, prod, out = c.lastCols, &c.prod, reuse(&c.out, x.Rows, c.OutFeatures())
	} else {
		colsM = c.im2col(scratch(x.Rows*positions, c.Weight.W.Rows), x)
		prod, out = scratch(x.Rows*positions, c.OutC), scratch(x.Rows, c.OutFeatures())
		defer release(colsM, prod)
	}
	// (batch·positions)×cols · cols×OutC.
	prod.MatMul(colsM, c.Weight.W)
	// Re-layout to batch×(OutC·OH·OW) CHW order: every element is written.
	for b := 0; b < x.Rows; b++ {
		for p := 0; p < positions; p++ {
			src := prod.Data[(b*positions+p)*c.OutC : (b*positions+p+1)*c.OutC]
			for ch, v := range src {
				out.Data[b*out.Cols+ch*positions+p] = v
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if c.lastCols == nil {
		panic("nn: Conv2D.Backward before training-mode Forward")
	}
	batch := gradOut.Rows
	positions := c.OH * c.OW
	if gradOut.Cols != c.OutFeatures() {
		panic(fmt.Sprintf("nn: %s Backward got width %d", c.Name(), gradOut.Cols))
	}
	// Re-layout gradOut to (batch·positions)×OutC rows.
	gpa := reuse(c.lastGradPA, batch*positions, c.OutC)
	for b := 0; b < batch; b++ {
		for p := 0; p < positions; p++ {
			for ch := 0; ch < c.OutC; ch++ {
				gpa.Data[(b*positions+p)*c.OutC+ch] = gradOut.Data[b*gradOut.Cols+ch*positions+p]
			}
		}
	}
	c.lastGradPA = gpa
	c.Weight.Grad.AXPY(1, c.gradW.TMatMul(c.lastCols, gpa))

	// ∂L/∂cols = gpa · Wᵀ over the weight rows (the bias column has no
	// input), then col2im scatter-add.
	colsWidth := c.K * c.K * c.InC
	gradCols := c.gradCols.MatMul(gpa, weightsT(&c.wT, c.Weight.W, colsWidth))
	gradIn := reuse(&c.gradIn, batch, c.InC*c.H*c.W)
	clear(gradIn.Data)
	for b := 0; b < batch; b++ {
		img := gradIn.Data[b*gradIn.Cols : (b+1)*gradIn.Cols]
		for oy := 0; oy < c.OH; oy++ {
			for ox := 0; ox < c.OW; ox++ {
				row := gradCols.Data[(b*positions+oy*c.OW+ox)*colsWidth:]
				idx := 0
				for ch := 0; ch < c.InC; ch++ {
					chBase := ch * c.H * c.W
					for ky := 0; ky < c.K; ky++ {
						dstBase := chBase + (oy+ky)*c.W + ox
						for kx := 0; kx < c.K; kx++ {
							img[dstBase+kx] += row[idx]
							idx++
						}
					}
				}
			}
		}
	}
	return gradIn
}

// KFACStats implements KFACLayer.
func (c *Conv2D) KFACStats() (act, grad *tensor.Matrix) {
	if c.lastCols == nil || c.lastGradPA == nil {
		panic("nn: Conv2D.KFACStats before Forward/Backward")
	}
	return c.lastCols, c.lastGradPA
}

// KFACParam implements KFACLayer.
func (c *Conv2D) KFACParam() *Param { return c.Weight }
