package nn

import (
	"fmt"
	"math/rand/v2"

	"compso/internal/tensor"
)

// Embedding maps integer token ids to learned vectors and mean-pools them
// per example: input is batch×seqLen with token ids stored as float64
// values, output is batch×dim. Embeddings are first-order parameters
// (distributed K-FAC implementations exclude them from preconditioning),
// so the layer only implements Layer, not KFACLayer.
type Embedding struct {
	Vocab, Dim, SeqLen int
	Table              *Param // Vocab×Dim
	lastIDs            []int
	lastBatch          int
	out, gradIn        tensor.Matrix // handed out (Layer)
}

// NewEmbedding creates an embedding table with N(0, 0.1) init.
func NewEmbedding(vocab, dim, seqLen int, rng *rand.Rand) *Embedding {
	e := &Embedding{Vocab: vocab, Dim: dim, SeqLen: seqLen,
		Table: newParam(fmt.Sprintf("embed%dx%d", vocab, dim), vocab, dim)}
	for i := range e.Table.W.Data {
		e.Table.W.Data[i] = rng.NormFloat64() * 0.1
	}
	return e
}

// Name implements Layer.
func (e *Embedding) Name() string { return fmt.Sprintf("embed(%d,%d)", e.Vocab, e.Dim) }

// Params implements Layer.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// Forward implements Layer.
func (e *Embedding) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != e.SeqLen {
		panic(fmt.Sprintf("nn: %s fed %d tokens, want %d", e.Name(), x.Cols, e.SeqLen))
	}
	out := output(&e.out, train, x.Rows, e.Dim)
	clear(out.Data) // the sums below start from zero
	if train {
		e.lastIDs, e.lastBatch = resize(e.lastIDs, x.Rows*e.SeqLen), x.Rows
	}
	inv := 1.0 / float64(e.SeqLen)
	for b := 0; b < x.Rows; b++ {
		dst := out.Data[b*e.Dim : (b+1)*e.Dim]
		for s := 0; s < e.SeqLen; s++ {
			id := int(x.Data[b*x.Cols+s])
			if id < 0 || id >= e.Vocab {
				panic(fmt.Sprintf("nn: token id %d outside vocab %d", id, e.Vocab))
			}
			if train {
				e.lastIDs[b*e.SeqLen+s] = id
			}
			row := e.Table.W.Data[id*e.Dim : (id+1)*e.Dim]
			for j, v := range row {
				dst[j] += v * inv
			}
		}
	}
	return out
}

// Backward implements Layer. The returned input gradient is zero-valued
// (token ids are not differentiable); it exists to keep the Sequential
// chain uniform.
func (e *Embedding) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if e.lastIDs == nil || gradOut.Rows != e.lastBatch || gradOut.Cols != e.Dim {
		panic("nn: Embedding.Backward shape mismatch")
	}
	inv := 1.0 / float64(e.SeqLen)
	for b := 0; b < gradOut.Rows; b++ {
		g := gradOut.Data[b*e.Dim : (b+1)*e.Dim]
		for s := 0; s < e.SeqLen; s++ {
			id := e.lastIDs[b*e.SeqLen+s]
			dst := e.Table.Grad.Data[id*e.Dim : (id+1)*e.Dim]
			for j, v := range g {
				dst[j] += v * inv
			}
		}
	}
	gradIn := reuse(&e.gradIn, gradOut.Rows, e.SeqLen)
	clear(gradIn.Data)
	return gradIn
}
