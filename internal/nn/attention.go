package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"compso/internal/tensor"
)

// SelfAttention is a multi-head self-attention block with a residual
// connection, operating on token sequences flattened as batch×(Seq·Dim)
// rows (token-major). Its four projections (Q, K, V, output) are Dense
// sub-layers, so K-FAC preconditions them exactly as it preconditions the
// attention weights of the paper's BERT/GPT workloads.
type SelfAttention struct {
	Seq, Dim, Heads int
	// NoResidual disables the built-in residual connection (used when a
	// containing block manages its own residual structure).
	NoResidual     bool
	Wq, Wk, Wv, Wo *Dense

	// Caches from the last training-mode forward.
	batch   int
	probs   []*tensor.Matrix // softmax attention per (batch·head), Seq×Seq
	q, k, v *tensor.Matrix   // projected activations, (batch·Seq)×Dim
	// Training storage reused from step to step: the heads' concatenated
	// output, and the gradients of the three projections' outputs.
	attnOut, gradQ, gradK, gradV tensor.Matrix
}

// NewSelfAttention creates the block. Dim must be divisible by heads.
func NewSelfAttention(seq, dim, heads int, rng *rand.Rand) *SelfAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by %d heads", dim, heads))
	}
	return &SelfAttention{
		Seq: seq, Dim: dim, Heads: heads,
		Wq: NewDense(dim, dim, rng),
		Wk: NewDense(dim, dim, rng),
		Wv: NewDense(dim, dim, rng),
		Wo: NewDense(dim, dim, rng),
	}
}

// Name implements Layer.
func (a *SelfAttention) Name() string {
	return fmt.Sprintf("attention(s%d,d%d,h%d)", a.Seq, a.Dim, a.Heads)
}

// Params implements Layer.
func (a *SelfAttention) Params() []*Param {
	var out []*Param
	for _, d := range a.SubLayers() {
		out = append(out, d.Params()...)
	}
	return out
}

// SubLayers implements Composite: the four projections are the K-FAC
// units.
func (a *SelfAttention) SubLayers() []Layer {
	return []Layer{a.Wq, a.Wk, a.Wv, a.Wo}
}

// tokens reshapes batch×(Seq·Dim) rows into (batch·Seq)×Dim token rows.
func (a *SelfAttention) tokens(x *tensor.Matrix) *tensor.Matrix {
	return tensor.FromSlice(x.Rows*a.Seq, a.Dim, x.Data)
}

// unTokens reshapes token rows back to batch×(Seq·Dim).
func (a *SelfAttention) unTokens(x *tensor.Matrix, batch int) *tensor.Matrix {
	return tensor.FromSlice(batch, a.Seq*a.Dim, x.Data)
}

// headSlice views head h of token t-range for one example as an S×Dh
// matrix copy.
func (a *SelfAttention) headSlice(m *tensor.Matrix, b, h int) *tensor.Matrix {
	dh := a.Dim / a.Heads
	out := tensor.New(a.Seq, dh)
	for t := 0; t < a.Seq; t++ {
		src := m.Data[(b*a.Seq+t)*a.Dim+h*dh : (b*a.Seq+t)*a.Dim+(h+1)*dh]
		copy(out.Data[t*dh:(t+1)*dh], src)
	}
	return out
}

// addHeadSlice scatters an S×Dh head block back into the token-major
// matrix, adding.
func (a *SelfAttention) addHeadSlice(dst *tensor.Matrix, src *tensor.Matrix, b, h int) {
	dh := a.Dim / a.Heads
	for t := 0; t < a.Seq; t++ {
		d := dst.Data[(b*a.Seq+t)*a.Dim+h*dh : (b*a.Seq+t)*a.Dim+(h+1)*dh]
		for j := 0; j < dh; j++ {
			d[j] += src.Data[t*dh+j]
		}
	}
}

// Forward implements Layer.
func (a *SelfAttention) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != a.Seq*a.Dim {
		panic(fmt.Sprintf("nn: %s fed width %d, want %d", a.Name(), x.Cols, a.Seq*a.Dim))
	}
	batch := x.Rows
	tok := a.tokens(x)
	q := a.Wq.Forward(tok, train)
	k := a.Wk.Forward(tok, train)
	v := a.Wv.Forward(tok, train)

	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	attnOut := output(&a.attnOut, train, batch*a.Seq, a.Dim)
	clear(attnOut.Data) // the heads add into it
	var probs []*tensor.Matrix
	var kt tensor.Matrix // each head's kₕᵀ, packed for MatMulT in turn
	for b := 0; b < batch; b++ {
		for h := 0; h < a.Heads; h++ {
			qh := a.headSlice(q, b, h)
			kh := a.headSlice(k, b, h)
			vh := a.headSlice(v, b, h)
			scores := tensor.New(0, 0).MatMulTPacked(qh, kh, &kt)
			scores.Scale(scale, scores)
			p := softmaxRows(scores)
			if train {
				probs = append(probs, p)
			}
			o := tensor.New(0, 0).MatMul(p, vh)
			a.addHeadSlice(attnOut, o, b, h)
		}
	}
	y := a.Wo.Forward(attnOut, train)
	if train {
		a.batch, a.probs = batch, probs
		a.q, a.k, a.v = q, k, v
	}
	// The output projection's output is this layer's to write into, so
	// the residual lands in it.
	out := a.unTokens(y, batch)
	if !a.NoResidual {
		out.AXPY(1, x)
	}
	if !train {
		release(q, k, v, attnOut)
	}
	return out
}

// Backward implements Layer.
func (a *SelfAttention) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if a.probs == nil {
		panic("nn: SelfAttention.Backward before training-mode Forward")
	}
	batch := a.batch
	if gradOut.Rows != batch || gradOut.Cols != a.Seq*a.Dim {
		panic(fmt.Sprintf("nn: %s Backward got %dx%d", a.Name(), gradOut.Rows, gradOut.Cols))
	}
	gradTok := a.tokens(gradOut)
	// Through the output projection.
	gradAttn := a.Wo.Backward(gradTok)

	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	gradQ := reuse(&a.gradQ, batch*a.Seq, a.Dim)
	gradK := reuse(&a.gradK, batch*a.Seq, a.Dim)
	gradV := reuse(&a.gradV, batch*a.Seq, a.Dim)
	clear(gradQ.Data) // the heads add into all three
	clear(gradK.Data)
	clear(gradV.Data)
	pi := 0
	var vt tensor.Matrix // each head's vₕᵀ, packed for MatMulT in turn
	for b := 0; b < batch; b++ {
		for h := 0; h < a.Heads; h++ {
			p := a.probs[pi]
			pi++
			gOh := a.headSlice(gradAttn, b, h)
			qh := a.headSlice(a.q, b, h)
			kh := a.headSlice(a.k, b, h)
			vh := a.headSlice(a.v, b, h)
			// o = p·v → ∂p = gO·vᵀ, ∂v = pᵀ·gO.
			gradP := tensor.New(0, 0).MatMulTPacked(gOh, vh, &vt)
			gVh := tensor.New(0, 0).TMatMul(p, gOh)
			// Softmax backward per row: gS = p ⊙ (gP − ⟨gP, p⟩row).
			gradS := tensor.New(a.Seq, a.Seq)
			for t := 0; t < a.Seq; t++ {
				var dot float64
				for j := 0; j < a.Seq; j++ {
					dot += gradP.Data[t*a.Seq+j] * p.Data[t*a.Seq+j]
				}
				for j := 0; j < a.Seq; j++ {
					gradS.Data[t*a.Seq+j] = p.Data[t*a.Seq+j] * (gradP.Data[t*a.Seq+j] - dot)
				}
			}
			gradS.Scale(scale, gradS)
			// scores = q·kᵀ → ∂q = gS·k, ∂k = gSᵀ·q.
			gQh := tensor.New(0, 0).MatMul(gradS, kh)
			gKh := tensor.New(0, 0).TMatMul(gradS, qh)
			a.addHeadSlice(gradQ, gQh, b, h)
			a.addHeadSlice(gradK, gKh, b, h)
			a.addHeadSlice(gradV, gVh, b, h)
		}
	}
	// The projections' input gradients are this layer's to write into: the
	// sum and the residual land in Wq's.
	gradIn := a.Wq.Backward(gradQ)
	gradIn.AXPY(1, a.Wk.Backward(gradK))
	gradIn.AXPY(1, a.Wv.Backward(gradV))
	out := a.unTokens(gradIn, batch)
	if !a.NoResidual {
		out.AXPY(1, gradOut)
	}
	return out
}

// softmaxRows applies a numerically stable softmax to each row.
func softmaxRows(m *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxV)
			out.Data[i*m.Cols+j] = e
			sum += e
		}
		for j := range row {
			out.Data[i*m.Cols+j] /= sum
		}
	}
	return out
}
