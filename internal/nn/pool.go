package nn

import (
	"fmt"
	"math"

	"compso/internal/tensor"
)

// MaxPool2D applies non-overlapping K×K max pooling per channel on
// batch×(C·H·W) inputs (CHW order). H and W must be divisible by K.
type MaxPool2D struct {
	C, H, W, K  int
	OH, OW      int
	argmax      []int // flat input index chosen per output element
	lastBatch   int
	out, gradIn tensor.Matrix // handed out (Layer)
}

// NewMaxPool2D creates the pooling layer.
func NewMaxPool2D(c, h, w, k int) *MaxPool2D {
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: maxpool %dx%d not divisible by %d", h, w, k))
	}
	return &MaxPool2D{C: c, H: h, W: w, K: k, OH: h / k, OW: w / k}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string {
	return fmt.Sprintf("maxpool(%dx%dx%d,k%d)", m.C, m.H, m.W, m.K)
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutFeatures returns the flattened output width.
func (m *MaxPool2D) OutFeatures() int { return m.C * m.OH * m.OW }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != m.C*m.H*m.W {
		panic(fmt.Sprintf("nn: %s fed width %d", m.Name(), x.Cols))
	}
	out := output(&m.out, train, x.Rows, m.OutFeatures())
	if train {
		m.argmax, m.lastBatch = resize(m.argmax, x.Rows*m.OutFeatures()), x.Rows
	}
	for b := 0; b < x.Rows; b++ {
		img := x.Data[b*x.Cols : (b+1)*x.Cols]
		for c := 0; c < m.C; c++ {
			for oy := 0; oy < m.OH; oy++ {
				for ox := 0; ox < m.OW; ox++ {
					best := math.Inf(-1)
					bestIdx := -1
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							idx := c*m.H*m.W + (oy*m.K+ky)*m.W + ox*m.K + kx
							if img[idx] > best {
								best = img[idx]
								bestIdx = idx
							}
						}
					}
					outIdx := b*m.OutFeatures() + c*m.OH*m.OW + oy*m.OW + ox
					out.Data[outIdx] = best
					if train {
						m.argmax[outIdx] = bestIdx
					}
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if m.argmax == nil || gradOut.Rows != m.lastBatch || gradOut.Cols != m.OutFeatures() {
		panic("nn: MaxPool2D.Backward shape mismatch")
	}
	gradIn := reuse(&m.gradIn, gradOut.Rows, m.C*m.H*m.W)
	clear(gradIn.Data) // the scatter below adds
	for b := 0; b < gradOut.Rows; b++ {
		for o := 0; o < m.OutFeatures(); o++ {
			outIdx := b*m.OutFeatures() + o
			gradIn.Data[b*gradIn.Cols+m.argmax[outIdx]] += gradOut.Data[outIdx]
		}
	}
	return gradIn
}
