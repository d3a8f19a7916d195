package kfac

import (
	"fmt"

	"compso/internal/tensor"
)

// Checkpoint/restore support. The optimizer's state splits into two parts
// with different replication properties:
//
//   - Common state — running factors A/G, momentum velocities, the step and
//     statVersion counters — is bit-identical on every rank (factors are
//     all-reduced, gradients averaged), so a checkpoint stores it once.
//     CaptureState/RestoreState handle it.
//   - Owner-local caches — the factors' eigendecompositions — exist only
//     on the rank that owns the layer in the distributed-preconditioning
//     work assignment. Losing them on restore would not break numerics
//     (they are pure functions of A and G) but WOULD break bit-identical
//     resume timing/caching semantics when the last refresh predates the
//     checkpoint: the resumed run must keep using the cached
//     decomposition until the next scheduled refresh, not recompute it
//     from newer factors. CaptureCaches/RestoreCaches handle them per
//     owned layer.
//
// Pending batch factors (pendA/pendG) are consumed at every step boundary —
// AccumulateStats and CommitCovariances bracket them within a single
// iteration — so checkpoints taken between steps never need them;
// CaptureState rejects a mid-exchange capture instead of silently dropping
// the pending factors.

// State is the replica-identical optimizer state: deep copies of the
// running Kronecker factors, momentum velocities (layer order, nil before
// the first update), non-K-FAC parameter velocities (others order), and
// the update/commit counters.
type State struct {
	Step        int
	StatVersion int
	A, G        []*tensor.Matrix
	Vel         [][]float64
	OtherVel    [][]float64
}

// LayerCache is one layer's owner-local decomposition cache: the cached
// eigendecompositions with the statVersion stamp they were computed from.
// Both are deep copies; nil fields mean the cache was empty.
type LayerCache struct {
	Layer      int
	EigVersion int
	EigA, EigG *tensor.Eigen
}

// CaptureState deep-copies the replica-identical state. It panics if
// called with pending (uncommitted) batch factors in flight — checkpoints
// are taken at step boundaries only.
func (k *KFAC) CaptureState() *State {
	st := &State{
		Step:        k.step,
		StatVersion: k.statVersion,
		A:           make([]*tensor.Matrix, len(k.layers)),
		G:           make([]*tensor.Matrix, len(k.layers)),
		Vel:         make([][]float64, len(k.layers)),
		OtherVel:    make([][]float64, len(k.others)),
	}
	for i, l := range k.layers {
		if l.pending {
			panic(fmt.Sprintf("kfac: CaptureState with pending factors on layer %d (mid-exchange capture)", i))
		}
		st.A[i] = l.A.Clone()
		st.G[i] = l.G.Clone()
		if l.vel != nil {
			st.Vel[i] = append([]float64(nil), l.vel...)
		}
	}
	for i, p := range k.others {
		if v := k.otherVel[p]; v != nil {
			st.OtherVel[i] = append([]float64(nil), v...)
		}
	}
	return st
}

// RestoreState installs a CaptureState snapshot, deep-copying every slice
// and matrix so the snapshot stays independent of the live optimizer. The
// snapshot must come from an identically configured optimizer over the
// same model architecture.
func (k *KFAC) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("kfac: restore: nil state")
	}
	if len(st.A) != len(k.layers) || len(st.G) != len(k.layers) || len(st.Vel) != len(k.layers) {
		return fmt.Errorf("kfac: restore: %d/%d/%d layer entries, optimizer has %d layers",
			len(st.A), len(st.G), len(st.Vel), len(k.layers))
	}
	if len(st.OtherVel) != len(k.others) {
		return fmt.Errorf("kfac: restore: %d other-velocity entries, optimizer has %d", len(st.OtherVel), len(k.others))
	}
	for i, l := range k.layers {
		a, g := st.A[i], st.G[i]
		if a == nil || g == nil {
			return fmt.Errorf("kfac: restore: nil factor on layer %d", i)
		}
		if a.Rows != l.A.Rows || a.Cols != l.A.Cols || g.Rows != l.G.Rows || g.Cols != l.G.Cols {
			return fmt.Errorf("kfac: restore: layer %d factor shape %dx%d/%dx%d, want %dx%d/%dx%d",
				i, a.Rows, a.Cols, g.Rows, g.Cols, l.A.Rows, l.A.Cols, l.G.Rows, l.G.Cols)
		}
		if n := k.LayerGradSize(i); st.Vel[i] != nil && len(st.Vel[i]) != n {
			return fmt.Errorf("kfac: restore: layer %d velocity %d values, want %d", i, len(st.Vel[i]), n)
		}
	}
	for i, p := range k.others {
		if st.OtherVel[i] != nil && len(st.OtherVel[i]) != len(p.W.Data) {
			return fmt.Errorf("kfac: restore: other %d velocity %d values, want %d", i, len(st.OtherVel[i]), len(p.W.Data))
		}
	}
	k.step = st.Step
	k.statVersion = st.StatVersion
	for i, l := range k.layers {
		l.A = st.A[i].Clone()
		l.G = st.G[i].Clone()
		if st.Vel[i] != nil {
			l.vel = append([]float64(nil), st.Vel[i]...)
		} else {
			l.vel = nil
		}
		// Any cached decompositions predate the restored factors; drop
		// them (RestoreCaches re-installs the checkpointed ones).
		l.eigA, l.eigG, l.eigVersion = nil, nil, 0
		l.pending, l.precond = false, nil
	}
	for i, p := range k.others {
		if st.OtherVel[i] != nil {
			k.otherVel[p] = append([]float64(nil), st.OtherVel[i]...)
		} else {
			delete(k.otherVel, p)
		}
	}
	return nil
}

// CaptureCaches deep-copies the decomposition caches of the given layers
// (the caller's owned set). Layers with empty caches contribute an entry
// with nil matrices so restore can distinguish "owned but never refreshed"
// from "not captured".
func (k *KFAC) CaptureCaches(layers []int) ([]LayerCache, error) {
	out := make([]LayerCache, 0, len(layers))
	for _, li := range layers {
		if li < 0 || li >= len(k.layers) {
			return nil, fmt.Errorf("kfac: capture caches: layer %d out of range [0,%d)", li, len(k.layers))
		}
		l := k.layers[li]
		c := LayerCache{Layer: li, EigVersion: l.eigVersion}
		if l.eigA != nil {
			c.EigA = cloneEigen(l.eigA)
		}
		if l.eigG != nil {
			c.EigG = cloneEigen(l.eigG)
		}
		out = append(out, c)
	}
	return out, nil
}

// RestoreCaches installs CaptureCaches snapshots (deep-copied). Call after
// RestoreState — RestoreState clears all caches.
func (k *KFAC) RestoreCaches(caches []LayerCache) error {
	for _, c := range caches {
		if c.Layer < 0 || c.Layer >= len(k.layers) {
			return fmt.Errorf("kfac: restore caches: layer %d out of range [0,%d)", c.Layer, len(k.layers))
		}
		l := k.layers[c.Layer]
		da, dg := l.A.Rows, l.G.Rows
		if c.EigA != nil && (len(c.EigA.Values) != da || c.EigA.Q.Rows != da || c.EigA.Q.Cols != da) {
			return fmt.Errorf("kfac: restore caches: layer %d eigA dim mismatch", c.Layer)
		}
		if c.EigG != nil && (len(c.EigG.Values) != dg || c.EigG.Q.Rows != dg || c.EigG.Q.Cols != dg) {
			return fmt.Errorf("kfac: restore caches: layer %d eigG dim mismatch", c.Layer)
		}
		l.eigVersion = c.EigVersion
		l.eigA, l.eigG = nil, nil
		if c.EigA != nil {
			l.eigA = cloneEigen(c.EigA)
		}
		if c.EigG != nil {
			l.eigG = cloneEigen(c.EigG)
		}
	}
	return nil
}

func cloneEigen(e *tensor.Eigen) *tensor.Eigen {
	return &tensor.Eigen{
		Values: append([]float64(nil), e.Values...),
		Q:      e.Q.Clone(),
	}
}
