package nn

import (
	"fmt"
	"math"
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
	out := output(train, x.Rows, e.Seq*e.Dim)
	ids := make([]int, x.Rows*e.Seq)
	for b := 0; b < x.Rows; b++ {
		for s := 0; s < e.Seq; s++ {
			id := int(x.Data[b*x.Cols+s])
			if id < 0 || id >= e.Vocab {
				panic(fmt.Sprintf("nn: token id %d outside vocab %d", id, e.Vocab))
			}
			ids[b*e.Seq+s] = id
			dst := out.Data[b*out.Cols+s*e.Dim : b*out.Cols+(s+1)*e.Dim]
			src := e.Table.W.Data[id*e.Dim : (id+1)*e.Dim]
			pos := e.Pos.W.Data[s*e.Dim : (s+1)*e.Dim]
			for j := range dst {
				dst[j] = src[j] + pos[j]
			}
		}
	}
	if train {
		e.lastIDs, e.lastBatch = ids, x.Rows
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
	return tensor.New(gradOut.Rows, e.Seq)
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
	rows := x.Rows * ln.Seq
	out := output(train, x.Rows, x.Cols)
	norm := tensor.New(x.Rows, x.Cols)
	stds := make([]float64, rows)
	for r := 0; r < rows; r++ {
		blk := x.Data[r*ln.Dim : (r+1)*ln.Dim]
		var mean float64
		for _, v := range blk {
			mean += v
		}
		mean /= float64(ln.Dim)
		var varSum float64
		for _, v := range blk {
			d := v - mean
			varSum += d * d
		}
		std := math.Sqrt(varSum/float64(ln.Dim) + ln.eps)
		stds[r] = std
		for j, v := range blk {
			nv := (v - mean) / std
			norm.Data[r*ln.Dim+j] = nv
			out.Data[r*ln.Dim+j] = nv*ln.Gamma.W.Data[j] + ln.Beta.W.Data[j]
		}
	}
	if train {
		ln.lastNorm, ln.lastStd = norm, stds
	}
	return out
}

// Backward implements Layer.
func (ln *SeqLayerNorm) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if ln.lastNorm == nil || gradOut.Rows != ln.lastNorm.Rows || gradOut.Cols != ln.Seq*ln.Dim {
		panic("nn: SeqLayerNorm.Backward shape mismatch")
	}
	n := float64(ln.Dim)
	gradIn := tensor.New(gradOut.Rows, gradOut.Cols)
	rows := gradOut.Rows * ln.Seq
	for r := 0; r < rows; r++ {
		gRow := gradOut.Data[r*ln.Dim : (r+1)*ln.Dim]
		nRow := ln.lastNorm.Data[r*ln.Dim : (r+1)*ln.Dim]
		for j, g := range gRow {
			ln.Gamma.Grad.Data[j] += g * nRow[j]
			ln.Beta.Grad.Data[j] += g
		}
		var sumG, sumGN float64
		for j, g := range gRow {
			gh := g * ln.Gamma.W.Data[j]
			sumG += gh
			sumGN += gh * nRow[j]
		}
		for j, g := range gRow {
			gh := g * ln.Gamma.W.Data[j]
			gradIn.Data[r*ln.Dim+j] = (gh - sumG/n - nRow[j]*sumGN/n) / ln.lastStd[r]
		}
	}
	return gradIn
}

// MeanPool averages the sequence dimension: batch×(Seq·Dim) → batch×Dim.
type MeanPool struct {
	Seq, Dim  int
	lastBatch int
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
	out := output(train, x.Rows, m.Dim)
	if !train {
		clear(out.Data) // the sums below start from zero
	}
	inv := 1.0 / float64(m.Seq)
	for b := 0; b < x.Rows; b++ {
		dst := out.Data[b*m.Dim : (b+1)*m.Dim]
		for s := 0; s < m.Seq; s++ {
			src := x.Data[b*x.Cols+s*m.Dim : b*x.Cols+(s+1)*m.Dim]
			for j, v := range src {
				dst[j] += v * inv
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
	gradIn := tensor.New(gradOut.Rows, m.Seq*m.Dim)
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
