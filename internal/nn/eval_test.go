package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"compso/internal/pool"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// tokenInput draws rows×cols token ids below vocab, stored as float64 the
// way the embedding layers read them.
func tokenInput(rows, cols, vocab int, seed int64) *tensor.Matrix {
	rng := xrand.NewSeeded(seed)
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float64(rng.IntN(vocab))
	}
	return m
}

// evalCase is a layer or a stack with a generator of inputs for it.
type evalCase[L any] struct {
	name  string
	build func() L
	input func(rows int) *tensor.Matrix
}

// evalLayers holds every layer type of the package.
func evalLayers() []evalCase[Layer] {
	rng := xrand.NewSeeded(11)
	const vocab, seq, dim = 11, 4, 6
	real := func(cols int) func(int) *tensor.Matrix {
		return func(rows int) *tensor.Matrix { return randomInput(rows, cols, 12) }
	}
	tokens := func(rows int) *tensor.Matrix { return tokenInput(rows, seq, vocab, 13) }
	var cases []evalCase[Layer]
	add := func(l Layer, input func(int) *tensor.Matrix) {
		cases = append(cases, evalCase[Layer]{l.Name(), func() Layer { return l }, input})
	}
	add(NewDense(7, 5, rng), real(7))
	add(NewConv2D(2, 6, 6, 3, 3, rng), real(2*6*6))
	add(NewMaxPool2D(2, 4, 4, 2), real(2*4*4))
	add(NewSelfAttention(seq, dim, 2, rng), real(seq*dim))
	add(NewTransformerBlock(seq, dim, 2, 10, rng), real(seq*dim))
	add(NewLayerNorm(9), real(9))
	add(NewSeqLayerNorm(seq, dim), real(seq*dim))
	add(NewEmbedding(vocab, dim, seq, rng), tokens)
	add(NewEmbeddingSeq(vocab, dim, seq, rng), tokens)
	add(NewMeanPool(seq, dim), real(seq*dim))
	add(NewReLU(), real(8))
	add(NewGELU(), real(8))
	add(NewTanh(), real(8))
	return cases
}

// evalModels are stacks that between them hold every layer type, the first
// being the benchmark's proxy.
func evalModels() []evalCase[*Sequential] {
	const vocab, seq, dim = 12, 6, 8
	return []evalCase[*Sequential]{
		{"proxy-cnn", func() *Sequential { return proxyCNN(21) },
			func(rows int) *tensor.Matrix { return randomInput(rows, 100, 22) }},
		{"cnn-maxpool", func() *Sequential {
			rng := xrand.NewSeeded(23)
			conv := NewConv2D(1, 10, 10, 4, 3, rng)
			mp := NewMaxPool2D(4, conv.OH, conv.OW, 2)
			return NewSequential(conv, NewGELU(), mp, NewDense(mp.OutFeatures(), 5, rng))
		}, func(rows int) *tensor.Matrix { return randomInput(rows, 100, 24) }},
		{"transformer", func() *Sequential {
			rng := xrand.NewSeeded(25)
			return NewSequential(NewEmbeddingSeq(vocab, dim, seq, rng), NewTransformerBlock(seq, dim, 2, 16, rng),
				NewSelfAttention(seq, dim, 2, rng), NewSeqLayerNorm(seq, dim), NewMeanPool(seq, dim), NewTanh(),
				NewDense(dim, 3, rng))
		}, func(rows int) *tensor.Matrix { return tokenInput(rows, seq, vocab, 26) }},
		{"bag-of-tokens", func() *Sequential {
			rng := xrand.NewSeeded(27)
			return NewSequential(NewEmbedding(vocab, dim, seq, rng), NewLayerNorm(dim), NewReLU(), NewDense(dim, 3, rng))
		}, func(rows int) *tensor.Matrix { return tokenInput(rows, seq, vocab, 28) }},
	}
}

// sameMatrix requires got and want to have one shape and the same bits.
func sameMatrix(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %dx%d (%d values), want %dx%d (%d values)", what, got.Rows, got.Cols, len(got.Data), want.Rows, want.Cols, len(want.Data))
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)", what, i, math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(w), w)
		}
	}
}

// The contract blocked evaluation rests on, layer by layer: with train false,
// row r of the output is a function of row r of the input, so evaluating any
// run of rows alone gives the bits those rows have in the whole batch.
func TestEvalRowsAreIndependent(t *testing.T) {
	const rows = 37
	for _, c := range evalLayers() {
		layer, x := c.build(), c.input(rows)
		whole := layer.Forward(x, false)
		if whole.Rows != rows {
			t.Fatalf("%s: %d output rows for %d input rows", c.name, whole.Rows, rows)
		}
		for _, cut := range [][2]int{{0, 1}, {0, rows}, {5, 6}, {3, 35}, {32, rows}, {rows - 1, rows}, {9, 9}} {
			lo, hi := cut[0], cut[1]
			part := layer.Forward(rowsOf(x, lo, hi), false)
			sameMatrix(t, fmt.Sprintf("%s rows %d:%d", c.name, lo, hi), part, rowsOf(whole, lo, hi))
		}
	}
}

// Sequential's evaluation is the plain walk over the whole batch, bit for
// bit, whatever the batch leaves of the last block and however many workers
// take blocks — and that walk is the training-mode forward pass.
func TestEvalBlockedMatchesUnblockedWalk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range evalModels() {
		m := c.build()
		for _, rows := range []int{0, 1, evalBlockRows - 1, evalBlockRows, evalBlockRows + 1, 512} {
			x := c.input(rows)
			in := x.Clone()
			want := x
			for _, l := range m.Layers {
				want = l.Forward(want, false)
			}
			sameMatrix(t, fmt.Sprintf("%s, %d rows: training-mode forward", c.name, rows), c.build().Forward(x, true), want)
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got := m.Forward(x, false)
				sameMatrix(t, fmt.Sprintf("%s, %d rows, GOMAXPROCS %d", c.name, rows, procs), got, want)
			}
			sameMatrix(t, c.name+": input after evaluation", x, in)
		}
	}
}

// One model evaluated from four goroutines at once: every pass returns the
// training-mode forward's bits, and the arena holds what it held before. The
// pool's debug mode poisons every buffer it takes back, so a layer that took
// arena storage and relied on it being zero, or wrote to what it had
// released, fails here.
func TestEvalConcurrentLeavesPoolAsFound(t *testing.T) {
	defer pool.SetDebug(pool.DebugEnabled())
	pool.SetDebug(true)
	for _, c := range evalModels() {
		m := c.build()
		x := c.input(3*evalBlockRows + 5)
		want := c.build().Forward(x, true)
		// One pass to stock the arena with poisoned buffers.
		sameMatrix(t, c.name+": first pass", m.Forward(x, false), want)
		base := pool.Stats().Live
		var wg sync.WaitGroup
		var got [4][3]*tensor.Matrix
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := range got[g] {
					got[g][pass] = m.Forward(x, false)
				}
			}()
		}
		wg.Wait()
		if live := pool.Stats().Live; live != base {
			t.Fatalf("%s: %d arena buffers live after evaluation, %d before", c.name, live, base)
		}
		for g := range got {
			for pass, out := range got[g] {
				sameMatrix(t, fmt.Sprintf("%s: goroutine %d, pass %d", c.name, g, pass), out, want)
			}
		}
	}
}

// viewLayer answers with a view of its input, as a reshaping layer would.
type viewLayer struct{}

func (viewLayer) Name() string                             { return "view" }
func (viewLayer) Params() []*Param                         { return nil }
func (viewLayer) Backward(g *tensor.Matrix) *tensor.Matrix { return g }
func (viewLayer) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	return tensor.FromSlice(x.Rows, x.Cols, x.Data)
}

// The walker releases what it consumed and nothing else: not the caller's
// input, not a view of it, not an activation the next output is a view of
// (and that one once, through the view). The input is sized so that its
// blocks have arena capacities — released by mistake they would be adopted,
// poisoned and handed to the next taker.
func TestEvalNeverReleasesTheCallersInput(t *testing.T) {
	defer pool.SetDebug(pool.DebugEnabled())
	pool.SetDebug(true)
	const rows, width = 2 * evalBlockRows, 8
	dense := func() Layer { return NewDense(width, width, xrand.NewSeeded(31)) }
	for name, layers := range map[string][]Layer{
		"view":             {viewLayer{}},
		"view-dense":       {viewLayer{}, dense()},
		"dense-view":       {dense(), viewLayer{}},
		"dense-view-dense": {dense(), viewLayer{}, dense()},
		"view-view-dense":  {viewLayer{}, viewLayer{}, dense()},
	} {
		m := NewSequential(layers...)
		x := randomInput(rows, width, 32)
		in := x.Clone()
		want := x
		for _, l := range layers {
			if _, ok := l.(viewLayer); !ok {
				want = l.Forward(want, true)
			}
		}
		base := pool.Stats().Live
		for pass := 0; pass < 3; pass++ {
			got := m.Forward(x, false)
			sameMatrix(t, fmt.Sprintf("%s, pass %d", name, pass), got, want)
			sameMatrix(t, name+": input after evaluation", x, in)
			if sharesStorage(got, x) {
				t.Fatalf("%s: the result is a view of the input", name)
			}
		}
		if live := pool.Stats().Live; live != base {
			t.Fatalf("%s: %d arena buffers live after evaluation, %d before", name, live, base)
		}
	}
}
