package nn

import (
	"fmt"
	"math/rand/v2"

	"compso/internal/tensor"
)

// Conv2D is a 2-D convolution implemented via im2col, laid out
// channel-major as in Caffe: the unrolled patch matrix has one row per
// kernel offset (channel, ky, kx) and a last row of ones for the bias, and
// one column per output position of every example. Each GEMM then runs its
// inner loop along batch·OH·OW rather than along the few output channels.
// The patch matrix is also K-FAC's view of a convolution: the activation
// factor A is built from its rows, the gradient factor G from the
// pre-activation gradients regrouped the same way, one row per output
// channel (Grosse & Martens' KFC approximation).
//
// Inputs are batch×(C·H·W) matrices in CHW order; outputs are
// batch×(OutC·OH·OW) with OH = H−K+1 (valid padding, stride 1).
type Conv2D struct {
	InC, H, W int
	OutC, K   int
	OH, OW    int
	Weight    *Param // (K·K·InC + 1) × OutC, bias in the last row
	// The patch matrix, (K·K·InC + 1) × (batch·OH·OW), and the
	// pre-activation gradient, OutC × (batch·OH·OW), of the last training
	// step: Backward's and K-FAC's inputs.
	lastCols   *tensor.Matrix
	lastGradPA *tensor.Matrix
	// Temporaries of a training-mode Forward (prod) and of Backward (gpaT
	// the packed transpose of the pre-activation gradient), and the output
	// and input gradient it hands out (Layer). Like the two caches above
	// they are reused from step to step and collected with the layer; as
	// a model's first layer it never fills gradCols and gradIn
	// (Sequential.Backward).
	prod, gradW, gpaT, gradCols tensor.Matrix
	out, gradIn                 tensor.Matrix
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

// im2col unrolls a batch into the (K·K·InC + 1) × (batch·OH·OW) patch
// matrix, in dst's storage when reuse finds room there. Row (ch, ky, kx)
// holds, for every example and output row oy, the OW input pixels from
// (oy+ky, kx) on; the last row is all ones.
func (c *Conv2D) im2col(dst, x *tensor.Matrix) *tensor.Matrix {
	n := x.Rows * c.OH * c.OW
	out := reuse(dst, c.K*c.K*c.InC+1, n)
	row := out.Data
	for ch := 0; ch < c.InC; ch++ {
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				for b := 0; b < x.Rows; b++ {
					img := x.Data[b*x.Cols+ch*c.H*c.W:]
					for oy := 0; oy < c.OH; oy++ {
						copy(row[(b*c.OH+oy)*c.OW:][:c.OW], img[(oy+ky)*c.W+kx:])
					}
				}
				row = row[n:]
			}
		}
	}
	for i := range row {
		row[i] = 1
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
		colsM = c.im2col(scratch(c.Weight.W.Rows, x.Rows*positions), x)
		prod, out = scratch(c.OutC, x.Rows*positions), scratch(x.Rows, c.OutFeatures())
		defer release(colsM, prod)
	}
	// Wᵀ·cols: OutC × (batch·positions), channel ch of example b the run of
	// positions from column b·positions of row ch.
	prod.TMatMul(c.Weight.W, colsM)
	for b := 0; b < x.Rows; b++ {
		for ch := 0; ch < c.OutC; ch++ {
			copy(out.Data[b*out.Cols+ch*positions:][:positions], prod.Data[ch*prod.Cols+b*positions:])
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	c.backwardParams(gradOut)
	gpa := c.lastGradPA
	batch := gradOut.Rows
	positions := c.OH * c.OW
	n := batch * positions
	// ∂L/∂cols = W·gpa over the weight rows (the bias row has no input),
	// then col2im scatter-add.
	colsWidth := c.K * c.K * c.InC
	weights := tensor.Matrix{Rows: colsWidth, Cols: c.OutC, Data: c.Weight.W.Data[:colsWidth*c.OutC]}
	gradCols := c.gradCols.MatMul(&weights, gpa)
	gradIn := reuse(&c.gradIn, batch, c.InC*c.H*c.W)
	clear(gradIn.Data)
	// Each pixel adds its terms in ascending (oy, ox), the direct
	// convolution's order: with oy and ky fixed, kx runs down so that the
	// outputs reaching one pixel come in ascending ox.
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c.InC; ch++ {
			img := gradIn.Data[b*gradIn.Cols+ch*c.H*c.W:]
			for oy := 0; oy < c.OH; oy++ {
				for ky := 0; ky < c.K; ky++ {
					for kx := c.K - 1; kx >= 0; kx-- {
						row := (ch*c.K+ky)*c.K + kx
						src := gradCols.Data[row*n+b*positions+oy*c.OW:][:c.OW]
						dst := img[(oy+ky)*c.W+kx:][:c.OW]
						for ox, v := range src {
							dst[ox] += v
						}
					}
				}
			}
		}
	}
	return gradIn
}

// backwardParams implements paramBackwarder: Backward up to the weight
// gradient, without the input gradient's product and scatter.
func (c *Conv2D) backwardParams(gradOut *tensor.Matrix) {
	if c.lastCols == nil {
		panic("nn: Conv2D.Backward before training-mode Forward")
	}
	batch := gradOut.Rows
	positions := c.OH * c.OW
	n := batch * positions
	if gradOut.Cols != c.OutFeatures() || n != c.lastCols.Cols {
		panic(fmt.Sprintf("nn: %s Backward got %dx%d", c.Name(), gradOut.Rows, gradOut.Cols))
	}
	// Regroup gradOut by channel, as Forward's product: OutC × n.
	gpa := reuse(c.lastGradPA, c.OutC, n)
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c.OutC; ch++ {
			copy(gpa.Data[ch*n+b*positions:][:positions], gradOut.Data[b*gradOut.Cols+ch*positions:])
		}
	}
	c.lastGradPA = gpa
	c.Weight.Grad.AXPY(1, c.gradW.MatMulTPacked(c.lastCols, gpa, &c.gpaT))
}

// KFACStats implements KFACLayer: the patch matrix and the pre-activation
// gradient, one column per output position of every example.
func (c *Conv2D) KFACStats() (act, grad *tensor.Matrix) {
	if c.lastCols == nil || c.lastGradPA == nil {
		panic("nn: Conv2D.KFACStats before Forward/Backward")
	}
	return c.lastCols, c.lastGradPA
}

// KFACParam implements KFACLayer.
func (c *Conv2D) KFACParam() *Param { return c.Weight }
