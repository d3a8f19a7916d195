package nn

import (
	"fmt"
	"math/rand/v2"

	"compso/internal/tensor"
)

// Sequence-shaped layers: the transformer proxies carry token sequences as
// batch×(Seq·Dim) matrices (token-major). EmbeddingSeq produces them,
// SeqLayerNorm normalizes each token block, and MeanPool collapses the
// sequence for a classification head.

// EmbeddingSeq maps token ids (batch×Seq, float64-encoded ids) to
// per-token embeddings plus a learned positional embedding, producing
// batch×(Seq·Dim). Embedding tables are first-order parameters (excluded
// from K-FAC), as in the reference distributed K-FAC systems.
type EmbeddingSeq struct {
	Vocab, Dim, Seq int
	Table           *Param // Vocab×Dim
	Pos             *Param // Seq×Dim
	lastIDs         []int
	lastBatch       int
	out, gradIn     tensor.Matrix // handed out (Layer)
}

// NewEmbeddingSeq creates the embedding with N(0, 0.1) init.
func NewEmbeddingSeq(vocab, dim, seq int, rng *rand.Rand) *EmbeddingSeq {
	e := &EmbeddingSeq{Vocab: vocab, Dim: dim, Seq: seq,
		Table: newParam(fmt.Sprintf("embedseq%dx%d", vocab, dim), vocab, dim),
		Pos:   newParam(fmt.Sprintf("posembed%dx%d", seq, dim), seq, dim),
	}
	for i := range e.Table.W.Data {
		e.Table.W.Data[i] = rng.NormFloat64() * 0.1
	}
	for i := range e.Pos.W.Data {
		e.Pos.W.Data[i] = rng.NormFloat64() * 0.1
	}
	return e
}

// Name implements Layer.
func (e *EmbeddingSeq) Name() string { return fmt.Sprintf("embedseq(%d,%d)", e.Vocab, e.Dim) }

// Params implements Layer.
func (e *EmbeddingSeq) Params() []*Param { return []*Param{e.Table, e.Pos} }

// Forward implements Layer.
func (e *EmbeddingSeq) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != e.Seq {
		panic(fmt.Sprintf("nn: %s fed %d tokens, want %d", e.Name(), x.Cols, e.Seq))
	}
	out := output(&e.out, train, x.Rows, e.Seq*e.Dim)
	if train {
		e.lastIDs, e.lastBatch = resize(e.lastIDs, x.Rows*e.Seq), x.Rows
	}
	for b := 0; b < x.Rows; b++ {
		for s := 0; s < e.Seq; s++ {
			id := int(x.Data[b*x.Cols+s])
			if id < 0 || id >= e.Vocab {
				panic(fmt.Sprintf("nn: token id %d outside vocab %d", id, e.Vocab))
			}
			if train {
				e.lastIDs[b*e.Seq+s] = id
			}
			dst := out.Data[b*out.Cols+s*e.Dim : b*out.Cols+(s+1)*e.Dim]
			src := e.Table.W.Data[id*e.Dim : (id+1)*e.Dim]
			pos := e.Pos.W.Data[s*e.Dim : (s+1)*e.Dim]
			for j := range dst {
				dst[j] = src[j] + pos[j]
			}
		}
	}
	return out
}

// Backward implements Layer.
func (e *EmbeddingSeq) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if e.lastIDs == nil || gradOut.Rows != e.lastBatch || gradOut.Cols != e.Seq*e.Dim {
		panic("nn: EmbeddingSeq.Backward shape mismatch")
	}
	for b := 0; b < gradOut.Rows; b++ {
		for s := 0; s < e.Seq; s++ {
			id := e.lastIDs[b*e.Seq+s]
			g := gradOut.Data[b*gradOut.Cols+s*e.Dim : b*gradOut.Cols+(s+1)*e.Dim]
			dst := e.Table.Grad.Data[id*e.Dim : (id+1)*e.Dim]
			pos := e.Pos.Grad.Data[s*e.Dim : (s+1)*e.Dim]
			for j, v := range g {
				dst[j] += v
				pos[j] += v
			}
		}
	}
	gradIn := reuse(&e.gradIn, gradOut.Rows, e.Seq)
	clear(gradIn.Data)
	return gradIn
}

// SeqLayerNorm applies layer normalization to each token's Dim-wide block
// independently, with shared per-feature gamma/beta.
type SeqLayerNorm struct {
	Seq, Dim int
	Gamma    *Param
	Beta     *Param
	eps      float64
	lastNorm *tensor.Matrix
	lastStd  []float64
	// The training output and input gradient it hands out (Layer).
	out, gradIn tensor.Matrix
}

// NewSeqLayerNorm creates the per-token layer norm.
func NewSeqLayerNorm(seq, dim int) *SeqLayerNorm {
	ln := &SeqLayerNorm{Seq: seq, Dim: dim,
		Gamma: newParam(fmt.Sprintf("seqln%d.gamma", dim), 1, dim),
		Beta:  newParam(fmt.Sprintf("seqln%d.beta", dim), 1, dim),
		eps:   1e-5,
	}
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] = 1
	}
	return ln
}

// Name implements Layer.
func (ln *SeqLayerNorm) Name() string { return fmt.Sprintf("seqlayernorm(%d,%d)", ln.Seq, ln.Dim) }

// Params implements Layer.
func (ln *SeqLayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// Forward implements Layer.
func (ln *SeqLayerNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != ln.Seq*ln.Dim {
		panic(fmt.Sprintf("nn: %s fed width %d", ln.Name(), x.Cols))
	}
	out := output(&ln.out, train, x.Rows, x.Cols)
	var norm, stds []float64
	if train {
		ln.lastNorm = reuse(ln.lastNorm, x.Rows, x.Cols)
		ln.lastStd = resize(ln.lastStd, x.Rows*ln.Seq)
		norm, stds = ln.lastNorm.Data, ln.lastStd
	}
	normalize(x.Data, out.Data, norm, stds, ln.Dim, ln.eps, ln.Gamma, ln.Beta)
	return out
}

// Backward implements Layer.
func (ln *SeqLayerNorm) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if ln.lastNorm == nil || gradOut.Rows != ln.lastNorm.Rows || gradOut.Cols != ln.Seq*ln.Dim {
		panic("nn: SeqLayerNorm.Backward shape mismatch")
	}
	gradIn := reuse(&ln.gradIn, gradOut.Rows, gradOut.Cols)
	normalizeBackward(gradOut.Data, gradIn.Data, ln.lastNorm.Data, ln.lastStd, ln.Dim, ln.Gamma, ln.Beta)
	return gradIn
}

// MeanPool averages the sequence dimension: batch×(Seq·Dim) → batch×Dim.
type MeanPool struct {
	Seq, Dim    int
	lastBatch   int
	out, gradIn tensor.Matrix // handed out (Layer)
}

// NewMeanPool creates the pooling layer.
func NewMeanPool(seq, dim int) *MeanPool { return &MeanPool{Seq: seq, Dim: dim} }

// Name implements Layer.
func (m *MeanPool) Name() string { return fmt.Sprintf("meanpool(%d,%d)", m.Seq, m.Dim) }

// Params implements Layer.
func (m *MeanPool) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MeanPool) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != m.Seq*m.Dim {
		panic(fmt.Sprintf("nn: %s fed width %d", m.Name(), x.Cols))
	}
	out := output(&m.out, train, x.Rows, m.Dim)
	clear(out.Data) // the sums below start from zero
	inv := 1.0 / float64(m.Seq)
	for b := 0; b < x.Rows; b++ {
		dst := out.Data[b*m.Dim : (b+1)*m.Dim]
		for s := 0; s < m.Seq; s++ {
			src := x.Data[b*x.Cols+s*m.Dim : b*x.Cols+(s+1)*m.Dim]
			for j, v := range src {
				dst[j] += float64(v * inv)
			}
		}
	}
	if train {
		m.lastBatch = x.Rows
	}
	return out
}

// Backward implements Layer.
func (m *MeanPool) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if gradOut.Cols != m.Dim {
		panic("nn: MeanPool.Backward shape mismatch")
	}
	gradIn := reuse(&m.gradIn, gradOut.Rows, m.Seq*m.Dim)
	inv := 1.0 / float64(m.Seq)
	for b := 0; b < gradOut.Rows; b++ {
		g := gradOut.Data[b*m.Dim : (b+1)*m.Dim]
		for s := 0; s < m.Seq; s++ {
			dst := gradIn.Data[b*gradIn.Cols+s*m.Dim : b*gradIn.Cols+(s+1)*m.Dim]
			for j, v := range g {
				dst[j] = v * inv
			}
		}
	}
	return gradIn
}
