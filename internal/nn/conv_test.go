package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"compso/internal/tensor"
	"compso/internal/xrand"
)

// directConv is the textbook nested-loop convolution of c's weights over x,
// batch×(InC·H·W) in CHW order. Every output sums its terms in the order of
// the patch matrix's rows, (ch, ky, kx), from +0, then adds the bias.
func directConv(c *Conv2D, x *tensor.Matrix) *tensor.Matrix {
	w, bias := c.Weight.W, c.K*c.K*c.InC
	out := tensor.New(x.Rows, c.OutFeatures())
	for b := 0; b < x.Rows; b++ {
		for o := 0; o < c.OutC; o++ {
			for oy := 0; oy < c.OH; oy++ {
				for ox := 0; ox < c.OW; ox++ {
					var s float64
					for ch := 0; ch < c.InC; ch++ {
						for ky := 0; ky < c.K; ky++ {
							for kx := 0; kx < c.K; kx++ {
								s += x.At(b, (ch*c.H+oy+ky)*c.W+ox+kx) * w.At((ch*c.K+ky)*c.K+kx, o)
							}
						}
					}
					s += w.At(bias, o)
					out.Set(b, (o*c.OH+oy)*c.OW+ox, s)
				}
			}
		}
	}
	return out
}

// directConvGrads is directConv's backward pass for the output gradient g:
// the weight gradient, each element summing over (b, oy, ox), and the input
// gradient, where pixel (oy+ky, ox+kx) adds the term of output (oy, ox) —
// itself a sum over the output channels — in ascending (oy, ox).
func directConvGrads(c *Conv2D, x, g *tensor.Matrix) (gradW, gradIn *tensor.Matrix) {
	w, bias := c.Weight.W, c.K*c.K*c.InC
	gradW = tensor.New(w.Rows, w.Cols)
	for o := 0; o < c.OutC; o++ {
		for ch := 0; ch < c.InC; ch++ {
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					var s float64
					for b := 0; b < x.Rows; b++ {
						for oy := 0; oy < c.OH; oy++ {
							for ox := 0; ox < c.OW; ox++ {
								s += x.At(b, (ch*c.H+oy+ky)*c.W+ox+kx) * g.At(b, (o*c.OH+oy)*c.OW+ox)
							}
						}
					}
					gradW.Set((ch*c.K+ky)*c.K+kx, o, s)
				}
			}
		}
		var s float64
		for b := 0; b < x.Rows; b++ {
			for p := 0; p < c.OH*c.OW; p++ {
				s += g.At(b, o*c.OH*c.OW+p)
			}
		}
		gradW.Set(bias, o, s)
	}
	gradIn = tensor.New(x.Rows, x.Cols)
	for b := 0; b < x.Rows; b++ {
		for oy := 0; oy < c.OH; oy++ {
			for ox := 0; ox < c.OW; ox++ {
				for ch := 0; ch < c.InC; ch++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							var s float64
							for o := 0; o < c.OutC; o++ {
								s += g.At(b, (o*c.OH+oy)*c.OW+ox) * w.At((ch*c.K+ky)*c.K+kx, o)
							}
							i := (ch*c.H+oy+ky)*c.W + ox + kx
							gradIn.Set(b, i, gradIn.At(b, i)+s)
						}
					}
				}
			}
		}
	}
	return gradW, gradIn
}

// halfZeros draws a Gaussian matrix in which about every other element is a
// zero, a quarter of those negative.
func halfZeros(rows, cols int, seed int64) *tensor.Matrix {
	rng := xrand.NewSeeded(seed)
	m := tensor.New(rows, cols)
	for i := range m.Data {
		switch v := rng.NormFloat64(); {
		case rng.IntN(2) == 0:
			m.Data[i] = v
		case rng.IntN(4) == 0:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

// convStep runs one training step of c on x and g from a zeroed gradient.
func convStep(c *Conv2D, x, g *tensor.Matrix) (out, gradW, gradIn *tensor.Matrix) {
	c.Weight.ZeroGrad()
	out = c.Forward(x, true).Clone()
	gradIn = c.Backward(g)
	return out, c.Weight.Grad, gradIn
}

// Conv2D's three GEMMs and its col2im are the direct convolution bit for bit
// on finite input, whatever the layout: each output element starts at +0
// and adds the same terms in the same order, and a ±0 term a kernel skips
// changes nothing. The shapes cover one and three input channels, kernels
// of 1, 3 and the input's full height, and empty, single and odd batches.
//
// The zero skips are where the bits part on non-finite input, one row per
// GEMM: the forward product skips the weights' zeros, so a NaN activation
// under a zero weight stays out of the output; the weight gradient skips
// nothing, so a NaN gradient reaches it under a zero activation; the input
// gradient skips the weights' zeros, so a NaN gradient under a zero weight
// stays out of it.
func TestConv2DMatchesDirectConvolution(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit equality with the direct loops is checked on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	const h, w, outC = 5, 7, 4
	seed := int64(30)
	for _, inC := range []int{1, 3} {
		for _, k := range []int{1, 3, h} {
			for _, batch := range []int{0, 1, 33} {
				seed++
				c := NewConv2D(inC, h, w, outC, k, xrand.NewSeeded(seed))
				for o := 0; o < outC; o++ {
					c.Weight.W.Set(k*k*inC, o, 0.1*float64(o+1)) // a non-zero bias
				}
				x := halfZeros(batch, inC*h*w, seed)
				g := halfZeros(batch, c.OutFeatures(), seed+100)
				name := fmt.Sprintf("in %d, k %d, batch %d", inC, k, batch)
				out, gradW, gradIn := convStep(c, x, g)
				wantGradW, wantGradIn := directConvGrads(c, x, g)
				sameMatrix(t, name+": forward", out, directConv(c, x))
				sameMatrix(t, name+": weight gradient", gradW, wantGradW)
				sameMatrix(t, name+": input gradient", gradIn, wantGradIn)
				sameMatrix(t, name+": evaluation", c.Forward(x, false), out)
			}
		}
	}

	c := NewConv2D(3, h, w, outC, 3, xrand.NewSeeded(40))
	x, g := halfZeros(2, 3*h*w, 41), halfZeros(2, c.OutFeatures(), 42)
	nan := math.NaN()
	t.Run("forward skips zero weights", func(t *testing.T) {
		// Channel 1's weights are all zero: a NaN anywhere in it stays out.
		for r := 9; r < 18; r++ {
			for o := 0; o < outC; o++ {
				c.Weight.W.Set(r, o, 0)
			}
		}
		want := directConv(c, x)
		xn := x.Clone()
		xn.Set(1, 1*h*w+2*w+3, nan)
		out, _, _ := convStep(c, xn, g)
		sameMatrix(t, "forward", out, want)
	})
	t.Run("weight gradient skips nothing", func(t *testing.T) {
		// Every activation of example 0 is zero, one gradient of it NaN:
		// its channel's column of the weight gradient is NaN throughout.
		xz := x.Clone()
		clear(xz.Data[:xz.Cols])
		gn := g.Clone()
		gn.Set(0, 2*c.OH*c.OW+4, nan)
		_, gradW, _ := convStep(c, xz, gn)
		for r := 0; r < gradW.Rows; r++ {
			if v := gradW.At(r, 2); !math.IsNaN(v) {
				t.Fatalf("weight gradient (%d, 2) = %g, want NaN", r, v)
			}
		}
	})
	t.Run("input gradient skips zero weights", func(t *testing.T) {
		// Output channel 3's weights are all zero: a NaN in its gradient
		// stays out of the input gradient.
		for r := 0; r < c.Weight.W.Rows-1; r++ {
			c.Weight.W.Set(r, 3, 0)
		}
		_, want := directConvGrads(c, x, g)
		gn := g.Clone()
		gn.Set(1, 3*c.OH*c.OW+5, nan)
		_, _, gradIn := convStep(c, x, gn)
		sameMatrix(t, "input gradient", gradIn, want)
	})
}
