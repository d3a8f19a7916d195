package nn

import (
	"fmt"
	"math/rand/v2"

	"compso/internal/tensor"
)

// TransformerBlock is a full pre-LN transformer encoder block:
//
//	h   = x + Attention(LN1(x))
//	out = h + W2·GELU(W1·LN2(h))
//
// operating on batch×(Seq·Dim) token-major rows. Its attention projections
// and FFN matrices are Dense sub-layers, so K-FAC preconditions exactly
// the parameter set it preconditions in the paper's BERT/GPT workloads
// (q/k/v/o/ffn1/ffn2 per block).
type TransformerBlock struct {
	Seq, Dim, Heads, FFN int

	ln1  *SeqLayerNorm
	attn *SelfAttention
	ln2  *SeqLayerNorm
	ffn1 *Dense
	act  *GELU
	ffn2 *Dense
}

// NewTransformerBlock creates the block with an FFN hidden width of ffn.
func NewTransformerBlock(seq, dim, heads, ffn int, rng *rand.Rand) *TransformerBlock {
	attn := NewSelfAttention(seq, dim, heads, rng)
	attn.NoResidual = true // the block manages its own residuals
	return &TransformerBlock{
		Seq: seq, Dim: dim, Heads: heads, FFN: ffn,
		ln1:  NewSeqLayerNorm(seq, dim),
		attn: attn,
		ln2:  NewSeqLayerNorm(seq, dim),
		ffn1: NewDense(dim, ffn, rng),
		act:  NewGELU(),
		ffn2: NewDense(ffn, dim, rng),
	}
}

// Name implements Layer.
func (b *TransformerBlock) Name() string {
	return fmt.Sprintf("transformer(s%d,d%d,h%d,f%d)", b.Seq, b.Dim, b.Heads, b.FFN)
}

// Params implements Layer.
func (b *TransformerBlock) Params() []*Param {
	var out []*Param
	for _, l := range []Layer{b.ln1, b.attn, b.ln2, b.ffn1, b.ffn2} {
		out = append(out, l.Params()...)
	}
	return out
}

// SubLayers implements Composite, exposing the K-FAC-preconditionable
// projections (the attention composite recurses further).
func (b *TransformerBlock) SubLayers() []Layer {
	return []Layer{b.attn, b.ffn1, b.ffn2}
}

// Forward implements Layer.
func (b *TransformerBlock) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != b.Seq*b.Dim {
		panic(fmt.Sprintf("nn: %s fed width %d", b.Name(), x.Cols))
	}
	// Attention sub-block with residual. A sub-layer's output is this
	// block's to write into, so the residuals land in it.
	n1 := b.ln1.Forward(x, train)
	h := b.attn.Forward(n1, train)
	h.AXPY(1, x)
	// FFN sub-block on per-token rows, with residual.
	norm := b.ln2.Forward(h, train)
	tokens := tensor.FromSlice(norm.Rows*b.Seq, b.Dim, norm.Data)
	f1 := b.ffn1.Forward(tokens, train)
	g := b.act.Forward(f1, train)
	out := tensor.FromSlice(h.Rows, b.Seq*b.Dim, b.ffn2.Forward(g, train).Data)
	out.AXPY(1, h)
	if !train {
		release(n1, h, norm, f1, g)
	}
	return out
}

// Backward implements Layer.
func (b *TransformerBlock) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	// FFN path.
	gTokens := tensor.FromSlice(gradOut.Rows*b.Seq, b.Dim, gradOut.Data)
	gFFNTokens := b.ffn1.Backward(b.act.Backward(b.ffn2.Backward(gTokens)))
	gNorm := tensor.FromSlice(gradOut.Rows, b.Seq*b.Dim, gFFNTokens.Data)
	// FFN residual, in ln2's input gradient: this block's to write into,
	// and valid until ln2's next Backward.
	gH := b.ln2.Backward(gNorm)
	gH.AXPY(1, gradOut)

	// Attention path.
	gLn1 := b.attn.Backward(gH)
	// Attention residual.
	gX := b.ln1.Backward(gLn1)
	gX.AXPY(1, gH)
	return gX
}
