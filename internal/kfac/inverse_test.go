package kfac

import (
	"errors"
	"math"
	"strings"
	"testing"

	"compso/internal/nn"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// TestRefreshCholeskyRejectsNonFiniteFactors pins the pi-guard bugfix: a
// NaN factor trace compares false against `> 0` and used to sail through
// with pi = 1, baking NaN into the cached inverses. It must instead
// surface the typed ErrNonFiniteFactor before any inversion happens.
func TestRefreshCholeskyRejectsNonFiniteFactors(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		k := New(buildModel(9), DefaultConfig())
		l := k.layers[0]
		for i := 0; i < l.A.Rows; i++ {
			l.A.Data[i*l.A.Cols+i] = 1
		}
		for i := 0; i < l.G.Rows; i++ {
			l.G.Data[i*l.G.Cols+i] = 1
		}
		l.A.Data[0] = poison
		err := k.refreshCholesky(0)
		if err == nil {
			t.Fatalf("poison %v: refreshCholesky accepted a non-finite factor", poison)
		}
		if !errors.Is(err, ErrNonFiniteFactor) {
			t.Fatalf("poison %v: error %v is not ErrNonFiniteFactor", poison, err)
		}
		if l.invA != nil || l.invG != nil {
			t.Fatalf("poison %v: inverses cached despite the guard", poison)
		}
	}
}

// TestRefreshCholeskyAcceptsFiniteFactors: the guard must not reject
// healthy statistics.
func TestRefreshCholeskyAcceptsFiniteFactors(t *testing.T) {
	k := New(buildModel(9), DefaultConfig())
	l := k.layers[0]
	for i := 0; i < l.A.Rows; i++ {
		l.A.Data[i*l.A.Cols+i] = 2
	}
	for i := 0; i < l.G.Rows; i++ {
		l.G.Data[i*l.G.Cols+i] = 0.5
	}
	if err := k.refreshCholesky(0); err != nil {
		t.Fatalf("finite factors rejected: %v", err)
	}
	if l.invA == nil || l.invG == nil {
		t.Fatal("inverses not cached")
	}
	for _, x := range l.invA.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("non-finite inverse from finite factors")
		}
	}
}

// TestRefreshEigenRejectsNonFiniteFactors: in eigendecomposition mode a
// poisoned factor must surface tensor.ErrNonFinite, with the layer's name,
// at once — not "failed to converge" after the QL iteration has spent its
// budget on every eigenvalue — and must leave no decomposition cached.
func TestRefreshEigenRejectsNonFiniteFactors(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		k := New(buildModel(9), DefaultConfig())
		l := k.layers[1]
		l.G.Data[1] = poison
		err := k.RefreshEigen(1)
		if !errors.Is(err, tensor.ErrNonFinite) || !strings.Contains(err.Error(), l.name) {
			t.Fatalf("poison %v: error %v, want tensor.ErrNonFinite naming layer %s", poison, err, l.name)
		}
		if l.eigA != nil || l.eigG != nil || k.EigenCached(1) {
			t.Fatalf("poison %v: decomposition cached despite the error", poison)
		}
	}
}

// TestRefreshEigenRejectsNonFiniteActivation: the same error must come up
// from the other end, a non-finite activation in a training batch. The
// factor product is symmetric (tensor.GramRows): beside a rectified zero the
// value stays out of the off-diagonal elements, but its square is on the
// diagonal.
func TestRefreshEigenRejectsNonFiniteActivation(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		model := buildModel(9)
		k := New(model, DefaultConfig())
		x, y := makeBatch(xrand.NewSeeded(5), 16)
		_, grad := nn.SoftmaxCrossEntropy{}.Loss(model.Forward(x, true), y)
		model.Backward(grad)
		// The second Dense layer's activations are rectified: find an
		// example (a column of the feature-major statistics) with a zero in
		// it and poison another feature of that example.
		l := k.layers[1]
		act, _ := l.layer.KFACStats()
		feature, example := -1, -1
		for j := 0; j < act.Cols && example < 0; j++ {
			for i := 0; i < act.Rows-1; i++ {
				if act.Data[i*act.Cols+j] == 0 {
					feature, example = (i+1)%(act.Rows-1), j
					break
				}
			}
		}
		if example < 0 {
			t.Fatal("no rectified zero in the batch")
		}
		act.Data[feature*act.Cols+example] = poison
		k.AccumulateStats(16)
		if err := k.CommitCovariances(k.PendingCovariances(), 1); err != nil {
			t.Fatal(err)
		}
		err := k.RefreshEigen(1)
		if !errors.Is(err, tensor.ErrNonFinite) || !strings.Contains(err.Error(), l.name) {
			t.Fatalf("poison %v: error %v, want tensor.ErrNonFinite naming layer %s", poison, err, l.name)
		}
	}
}
