// Package nn is the minimal neural-network substrate the proxy models train
// on: layers with explicit forward/backward passes, parameter objects
// shared with the optimizers, and the activation/pre-activation-gradient
// capture that K-FAC's Kronecker factors are computed from (Eq. 1 of the
// paper: A = a·aᵀ, G = g·gᵀ).
//
// All tensors are tensor.Matrix values with the batch dimension first.
// Training a layer is not safe for concurrent use; in data-parallel training
// each simulated GPU holds its own model replica. Evaluating one
// (Forward(x, false)) is.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"compso/internal/pool"
	"compso/internal/tensor"
)

// Param is a learnable parameter with its gradient, accumulated by a
// layer's Backward and consumed (and typically zeroed) by an optimizer.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// newParam allocates a parameter and matching zero gradient.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// Size returns the number of scalar parameters.
func (p *Param) Size() int { return len(p.W.Data) }

// Layer is one differentiable stage of a model.
type Layer interface {
	// Name identifies the layer in logs and K-FAC work assignment.
	Name() string
	// Forward computes the layer output for a batch×in input; it never
	// writes into x. When train is true the layer keeps its own copy of
	// whatever Backward and K-FAC need, and the output is the layer's own
	// storage: valid until its next training-mode Forward, the caller may
	// read it or write into it, and the layer never reads it again
	// (DESIGN.md §5).
	//
	// With train false it writes no layer field, so one model may be
	// evaluated from several goroutines at once, and row r of the output
	// depends on row r of the input only: any split of a batch into row
	// blocks gives the bits of the whole batch. Sequential evaluates in
	// blocks on that ground. The output is then the caller's alone, on
	// arena storage (pool.F64): a caller done with it may hand it to
	// pool.PutF64, as Sequential does, and one that keeps it just keeps it.
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward consumes ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients along the way. It must follow a training-mode
	// Forward and never writes into gradOut. The input gradient is the
	// layer's own storage on the terms of a training output, valid until
	// its next Backward.
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	// Params returns the learnable parameters (empty for stateless layers).
	Params() []*Param
}

// Composite is implemented by layers that contain sub-layers (e.g.
// SelfAttention's four projections); Sequential recurses into them when
// collecting K-FAC-preconditionable layers.
type Composite interface {
	SubLayers() []Layer
}

// KFACLayer is implemented by layers K-FAC can precondition. The stats are
// those of the most recent training-mode Forward/Backward pair; they are the
// layer's own storage, overwritten by the next such pair.
type KFACLayer interface {
	Layer
	// KFACStats returns the statistics the Kronecker factors A = E[aaᵀ]
	// and G = E[ggᵀ] are built from, feature-major: one column per sample,
	// act with a row per input feature and a last row of ones (the
	// homogeneous bias coordinate), grad with a row per output. A dense
	// layer's samples are its batch rows, a convolution's every output
	// position of every example.
	KFACStats() (act, grad *tensor.Matrix)
	// KFACParam returns the combined weight matrix of shape
	// (in+1)×out that the preconditioned gradient applies to.
	KFACParam() *Param
}

// Sequential chains layers into a model.
type Sequential struct {
	Layers []*namedLayer
}

type namedLayer struct {
	Layer
	uniqueName string
}

// NewSequential builds a model, assigning each layer a unique name of the
// form "<index>-<layer name>".
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{}
	for i, l := range layers {
		s.Layers = append(s.Layers, &namedLayer{Layer: l, uniqueName: fmt.Sprintf("%02d-%s", i, l.Name())})
	}
	return s
}

// evalBlockRows is how many rows of an evaluation batch go through the
// stack together: the proxies' training batch, small enough that the widest
// temporary of a block (ProxyResNet's second im2col, 55×1152) stays in L2.
const evalBlockRows = 32

// Forward runs the whole stack. Evaluation (train false) splits x into
// blocks of evalBlockRows rows, runs them through the layers on the shared
// worker pool and gathers their outputs into one ordinary matrix; by the
// row-independence clause of Layer the result does not depend on the block
// size or the number of workers. Every activation between two layers goes
// back to the arena before Forward returns.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train || len(s.Layers) == 0 {
		for _, l := range s.Layers {
			x = l.Forward(x, true)
		}
		return x
	}
	outs := make([]*tensor.Matrix, max(1, (x.Rows+evalBlockRows-1)/evalBlockRows))
	pool.ParallelFor(len(outs), 0, func(b int) {
		outs[b] = s.evalBlock(rowsOf(x, b*evalBlockRows, min((b+1)*evalBlockRows, x.Rows)))
	})
	out := tensor.New(x.Rows, outs[0].Cols)
	for b, y := range outs {
		copy(out.Data[b*evalBlockRows*out.Cols:], y.Data)
		if !sharesStorage(y, x) {
			release(y)
		}
	}
	return out
}

// evalBlock walks one row block through the stack and returns the last
// layer's output. It releases each activation once the next layer has
// consumed it — unless that is the caller's input, or the layer answered
// with a view of it.
func (s *Sequential) evalBlock(in *tensor.Matrix) *tensor.Matrix {
	x := in
	for _, l := range s.Layers {
		y := l.Forward(x, false)
		if !sharesStorage(x, in) && !sharesStorage(x, y) {
			release(x)
		}
		x = y
	}
	return x
}

// paramBackwarder is a layer whose Backward can leave out the input
// gradient: backwardParams accumulates the parameter gradients and keeps
// the K-FAC statistics exactly as Backward does, and computes nothing else.
type paramBackwarder interface {
	backwardParams(gradOut *tensor.Matrix)
}

// Backward propagates the loss gradient through the stack in reverse,
// accumulating every parameter gradient. The first layer's input gradient
// is the data's, which nothing reads: a first layer that can leave it out
// (paramBackwarder: Conv2D, Dense) does.
func (s *Sequential) Backward(gradOut *tensor.Matrix) {
	for i := len(s.Layers) - 1; i > 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	if len(s.Layers) == 0 {
		return
	}
	if first, ok := s.Layers[0].Layer.(paramBackwarder); ok {
		first.backwardParams(gradOut)
		return
	}
	s.Layers[0].Backward(gradOut)
}

// Params returns every learnable parameter in layer order.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears all parameter gradients.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// KFACLayers returns the K-FAC-preconditionable layers with their unique
// names, in order — the unit of layer-wise work distribution in
// distributed K-FAC. Composite layers are searched recursively.
func (s *Sequential) KFACLayers() (names []string, layers []KFACLayer) {
	var walk func(prefix string, l Layer)
	walk = func(prefix string, l Layer) {
		if k, ok := l.(KFACLayer); ok {
			names = append(names, prefix)
			layers = append(layers, k)
			return
		}
		if c, ok := l.(Composite); ok {
			for i, sub := range c.SubLayers() {
				walk(fmt.Sprintf("%s/%02d-%s", prefix, i, sub.Name()), sub)
			}
		}
	}
	for _, l := range s.Layers {
		walk(l.uniqueName, l.Layer)
	}
	return names, layers
}

// reuse returns m reshaped to rows×cols, of unspecified contents, for
// callers that overwrite every element: in m's storage when it is large
// enough, otherwise in new storage. A nil m gets a new matrix.
func reuse(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil {
		m = new(tensor.Matrix)
	}
	return m.Reshape(rows, cols)
}

// resize returns s with length n and unspecified contents, in s's storage
// when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scratch returns a rows×cols matrix of unspecified contents on arena
// storage, for evaluation's temporaries and outputs: whoever takes one
// overwrites or clears all of it, and whoever is done with it — the layer
// for its temporaries, the consumer for an output — calls release.
func scratch(rows, cols int) *tensor.Matrix {
	return tensor.FromSlice(rows, cols, pool.F64(rows*cols))
}

// output returns the rows×cols matrix a Forward pass hands out, of
// unspecified contents: the layer's own field own, reshaped by reuse, in
// training; scratch in evaluation, which leaves own alone.
func output(own *tensor.Matrix, train bool, rows, cols int) *tensor.Matrix {
	if train {
		return reuse(own, rows, cols)
	}
	return scratch(rows, cols)
}

// release hands the storage of matrices nothing refers to any more back to
// the arena. Storage that did not come from there is dropped or adopted, as
// pool.PutF64 does with any foreign slice.
func release(ms ...*tensor.Matrix) {
	for _, m := range ms {
		pool.PutF64(m.Data)
	}
}

// rowsOf is the view of rows lo:hi of m.
func rowsOf(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	return tensor.FromSlice(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols])
}

// sharesStorage reports whether a and b are views of one allocation. Views
// cut by plain slicing end where their allocation ends, so comparing the
// last element within capacity finds them whatever their offsets.
func sharesStorage(a, b *tensor.Matrix) bool {
	ad, bd := a.Data[:cap(a.Data)], b.Data[:cap(b.Data)]
	return a == b || len(ad) > 0 && len(bd) > 0 && &ad[len(ad)-1] == &bd[len(bd)-1]
}

// initMatrix fills m with He initialization: N(0, sqrt(2/fanIn)).
func initMatrix(m *tensor.Matrix, fanIn int, rng *rand.Rand) {
	sigma := 1.0
	if fanIn > 0 {
		sigma = math.Sqrt(2 / float64(fanIn))
	}
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * sigma
	}
}
