package kfac

import (
	"testing"

	"compso/internal/nn"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// TestFactorCacheHitMatchesRecompute proves the version-stamped factor cache
// is indistinguishable from recomputation: a cache-hit RefreshEigen yields
// bit-identical preconditioned gradients to both the original decomposition
// and a forced recompute of the same factors, and a covariance commit
// invalidates the cache. Covers both inversion routes.
func TestFactorCacheHitMatchesRecompute(t *testing.T) {
	for _, inv := range []Inversion{EigenDecomp, CholeskyInverse} {
		cfg := DefaultConfig()
		cfg.Inversion = inv
		model := buildModel(11)
		k := New(model, cfg)
		rng := xrand.NewSeeded(5)
		x, y := makeBatch(rng, 32)
		loss := nn.SoftmaxCrossEntropy{}
		logits := model.Forward(x, true)
		_, grad := loss.Loss(logits, y)
		model.ZeroGrad()
		model.Backward(grad)
		k.AccumulateStats(32)
		if err := k.CommitCovariances(k.PendingCovariances(), 1); err != nil {
			t.Fatal(err)
		}
		if k.EigenCached(0) {
			t.Fatalf("%v: cached before first refresh", inv)
		}
		if err := k.RefreshEigen(0); err != nil {
			t.Fatal(err)
		}
		if !k.EigenCached(0) {
			t.Fatalf("%v: not cached after refresh", inv)
		}
		p1, err := k.Precondition(0)
		if err != nil {
			t.Fatal(err)
		}
		// Cache-hit refresh: the skipped solve must leave the factors — and
		// therefore the preconditioned gradient — exactly as they were.
		if err := k.RefreshEigen(0); err != nil {
			t.Fatal(err)
		}
		p2, err := k.Precondition(0)
		if err != nil {
			t.Fatal(err)
		}
		// Forced recompute of the same factors must also agree: the cache is
		// a pure shortcut, never a source of different numbers.
		l := k.layers[0]
		l.eigA, l.eigG, l.invA, l.invG = nil, nil, nil, nil
		if k.EigenCached(0) {
			t.Fatalf("%v: cached after invalidation", inv)
		}
		if err := k.RefreshEigen(0); err != nil {
			t.Fatal(err)
		}
		p3, err := k.Precondition(0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p1 {
			if p1[j] != p2[j] || p1[j] != p3[j] {
				t.Fatalf("%v: element %d diverged: first %g, cache hit %g, recompute %g",
					inv, j, p1[j], p2[j], p3[j])
			}
		}
		// New statistics must invalidate the cache.
		k.AccumulateStats(32)
		if err := k.CommitCovariances(k.PendingCovariances(), 1); err != nil {
			t.Fatal(err)
		}
		if k.EigenCached(0) {
			t.Fatalf("%v: still cached after a covariance commit", inv)
		}
	}
}

// TestRefreshEigenAllocatesOnlyTheResults: once a layer's scratch exists, a
// refresh allocates what its two EigenSym calls return and nothing else —
// no copy of a factor, whatever its size.
func TestRefreshEigenAllocatesOnlyTheResults(t *testing.T) {
	k := New(buildModel(13), DefaultConfig())
	for i, l := range k.layers {
		for j := range l.A.Data {
			l.A.Data[j] = float64(j%7) / 7
		}
		for j := range l.G.Data {
			l.G.Data[j] = float64(j%5) / 5
		}
		results := testing.AllocsPerRun(3, func() {
			for _, m := range []*tensor.Matrix{l.A, l.G} {
				if _, err := tensor.EigenSym(m); err != nil {
					t.Fatal(err)
				}
			}
		})
		refresh := testing.AllocsPerRun(3, func() {
			k.statVersion++
			if err := k.RefreshEigen(i); err != nil {
				t.Fatal(err)
			}
		})
		if refresh > results {
			t.Errorf("layer %s: a refresh allocated %.0f objects, its two EigenSym calls %.0f", l.name, refresh, results)
		}
	}
}
