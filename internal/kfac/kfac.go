// Package kfac implements the K-FAC second-order optimizer (Martens &
// Grosse) in the distributed formulation the paper builds on (KAISA,
// §2.1–2.2): per-layer Kronecker factors A = E[aaᵀ] and G = E[ggᵀ]
// maintained as running averages, eigendecomposition-based preconditioning
// (Eq. 2), and the hooks a data-parallel harness needs — flattened
// covariance buffers for the factor all-reduce, per-layer preconditioned
// gradients for the all-gather that COMPSO compresses, and layer ownership
// assignment for the layer-wise work split.
package kfac

import (
	"fmt"
	"math"
	"slices"

	"compso/internal/nn"
	"compso/internal/tensor"
)

// Config holds the K-FAC hyper-parameters.
type Config struct {
	// Damping is the Tikhonov damping γ added to the Kronecker eigenvalue
	// products (Eq. 2).
	Damping float64
	// StatDecay is the running-average factor for A and G (0.95 typical);
	// the factors stabilize as training proceeds, which is one of the two
	// reasons COMPSO can compress aggressively early (§4.3).
	StatDecay float64
	// InvFreq is how many steps between eigendecomposition refreshes.
	InvFreq int
	// Momentum applies classical momentum to the preconditioned update.
	Momentum float64
	// WeightDecay is L2 regularization applied at update time.
	WeightDecay float64
	// KLClip rescales updates so lr²·Σ⟨P, Ĝ⟩ stays below this bound
	// (KAISA's gradient scaling); 0 disables clipping.
	KLClip float64
	// Inversion selects the preconditioning route: eigendecomposition
	// (default, Eq. 2) or KAISA's implicit Cholesky inversion.
	Inversion Inversion
	// WarmupSteps applies plain-gradient updates for the first N steps
	// while the Kronecker factors' running averages stabilize — the
	// standard guard against early preconditioned-step blowups in
	// production K-FAC implementations.
	WarmupSteps int
}

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig() Config {
	return Config{Damping: 0.003, StatDecay: 0.95, InvFreq: 10, Momentum: 0.9, KLClip: 0.001, WarmupSteps: 15}
}

// layerState tracks one K-FAC-preconditioned layer.
type layerState struct {
	name  string
	layer nn.KFACLayer

	// Running Kronecker factors: A is (in+1)×(in+1), G is out×out.
	A, G *tensor.Matrix
	// Locally computed batch factors awaiting the factor all-reduce;
	// pending is set by AccumulateStats and cleared by CommitCovariances.
	// Their storage, like that of the statistic's packed transpose statT,
	// RefreshEigen's symmetrized factor copies symA and symG,
	// Precondition's temporaries tmp, v, tmp2 and qGT (Q_Gᵀ packed) and the
	// preconditioned gradient pre, is reused from step to step and
	// collected with the optimizer.
	pendA, pendG      tensor.Matrix
	statT             tensor.Matrix
	pending           bool
	symA, symG        tensor.Matrix
	tmp, v, tmp2, qGT tensor.Matrix
	pre               tensor.Matrix

	eigA, eigG *tensor.Eigen
	// eigVersion is the statVersion the cached eigendecomposition was
	// computed from; a matching version means A and G are unchanged and the
	// refresh can be skipped outright.
	eigVersion int
	// invA, invG cache the damped factor inverses in CholeskyInverse mode,
	// stamped with invVersion the same way.
	invA, invG *tensor.Matrix
	invVersion int
	// precond points at pre once Precondition or SetPreconditioned has
	// filled it; ApplyUpdate clears the pointer and keeps the storage.
	precond *tensor.Matrix
	vel     []float64
}

// KFAC is the optimizer. It is not safe for concurrent use; in simulated
// data-parallel training every worker owns one instance over its own model
// replica.
type KFAC struct {
	cfg  Config
	step int
	// statVersion counts covariance commits. The factor decompositions are
	// pure functions of A and G, which only change in CommitCovariances, so
	// a layer whose cached eigVersion/invVersion matches statVersion can
	// reuse its factors across the whole inverse-update interval — e.g. with
	// StatFreq > InvFreq most RefreshEigen calls become cache hits.
	statVersion int
	layers      []*layerState
	// others are non-K-FAC parameters (layer norms, embeddings) updated by
	// plain momentum SGD.
	others   []*nn.Param
	otherVel map[*nn.Param][]float64
}

// New builds a K-FAC optimizer over the model's preconditionable layers.
func New(model *nn.Sequential, cfg Config) *KFAC {
	if cfg.Damping <= 0 {
		panic(fmt.Sprintf("kfac: damping %g <= 0", cfg.Damping))
	}
	if cfg.InvFreq <= 0 {
		cfg.InvFreq = 1
	}
	k := &KFAC{cfg: cfg, otherVel: make(map[*nn.Param][]float64)}
	names, layers := model.KFACLayers()
	kfacParams := make(map[*nn.Param]bool)
	for i, l := range layers {
		p := l.KFACParam()
		kfacParams[p] = true
		inDim, outDim := p.W.Rows, p.W.Cols
		k.layers = append(k.layers, &layerState{
			name:  names[i],
			layer: l,
			A:     tensor.New(inDim, inDim),
			G:     tensor.New(outDim, outDim),
		})
	}
	for _, p := range model.Params() {
		if !kfacParams[p] {
			k.others = append(k.others, p)
		}
	}
	return k
}

// NumLayers returns the number of preconditioned layers.
func (k *KFAC) NumLayers() int { return len(k.layers) }

// LayerNames returns the preconditioned layers' unique names in order.
func (k *KFAC) LayerNames() []string {
	out := make([]string, len(k.layers))
	for i, l := range k.layers {
		out[i] = l.name
	}
	return out
}

// LayerGradSize returns the number of float32 values in layer i's
// preconditioned gradient — the per-layer all-gather message size.
func (k *KFAC) LayerGradSize(i int) int {
	p := k.layers[i].layer.KFACParam()
	return p.W.Rows * p.W.Cols
}

// AccumulateStats computes this batch's Kronecker factor contributions from
// the layers' captured statistics. Call it after Backward, before the
// factor all-reduce.
func (k *KFAC) AccumulateStats(batchSize int) {
	for _, l := range k.layers {
		a, g := l.layer.KFACStats()
		samples := float64(a.Cols)
		l.pendA.GramRows(a, &l.statT)
		l.pendA.Scale(1/samples, &l.pendA)
		l.pendG.GramRows(g, &l.statT)
		// Backward gradients carry the 1/batch loss scaling; multiplying
		// by the batch size restores the per-sample scale of G.
		l.pendG.Scale(float64(batchSize), &l.pendG)
		l.pending = true
	}
}

// CovarianceLen returns the length of the flattened pending-covariance
// buffer used for the factor all-reduce.
func (k *KFAC) CovarianceLen() int {
	n := 0
	for _, l := range k.layers {
		n += len(l.A.Data) + len(l.G.Data)
	}
	return n
}

// PendingCovariances flattens this batch's factor contributions into one
// new buffer in layer order (A then G per layer) — the payload of the
// paper's "KFAC Allreduce" step. AccumulateStats must have been called.
func (k *KFAC) PendingCovariances() []float64 {
	return k.AppendPendingCovariances(nil)
}

// AppendPendingCovariances is PendingCovariances appending to dst, for a
// caller that exchanges factors every step and keeps one buffer for it.
// The values are copied: the result shares nothing with the optimizer.
func (k *KFAC) AppendPendingCovariances(dst []float64) []float64 {
	dst = slices.Grow(dst, k.CovarianceLen())
	for _, l := range k.layers {
		if !l.pending {
			panic("kfac: PendingCovariances before AccumulateStats")
		}
		dst = append(dst, l.pendA.Data...)
		dst = append(dst, l.pendG.Data...)
	}
	return dst
}

// CommitCovariances folds the (all-reduced, summed) covariance buffer into
// the running averages, dividing by worldSize to average the workers'
// contributions.
func (k *KFAC) CommitCovariances(buf []float64, worldSize int) error {
	if len(buf) != k.CovarianceLen() {
		return fmt.Errorf("kfac: covariance buffer %d, want %d", len(buf), k.CovarianceLen())
	}
	if worldSize <= 0 {
		return fmt.Errorf("kfac: world size %d", worldSize)
	}
	inv := 1.0 / float64(worldSize)
	decay := k.cfg.StatDecay
	pos := 0
	for _, l := range k.layers {
		for i := range l.A.Data {
			l.A.Data[i] = decay*l.A.Data[i] + (1-decay)*buf[pos]*inv
			pos++
		}
		for i := range l.G.Data {
			l.G.Data[i] = decay*l.G.Data[i] + (1-decay)*buf[pos]*inv
			pos++
		}
		l.pending = false
	}
	k.statVersion++
	return nil
}

// NeedsEigen reports whether this step refreshes the eigendecompositions
// (every InvFreq steps, and always on the first).
func (k *KFAC) NeedsEigen() bool {
	return k.step%k.cfg.InvFreq == 0
}

// RefreshEigen recomputes the cached factor decomposition of layer i —
// the "KFAC computation" stage whose cost distributed K-FAC splits across
// GPUs. In CholeskyInverse mode it inverts the damped factors instead.
// When the factors have not been recommitted since the cached decomposition
// was taken, the refresh is a no-op cache hit.
func (k *KFAC) RefreshEigen(i int) error {
	if k.cfg.Inversion == CholeskyInverse {
		return k.refreshCholesky(i)
	}
	l := k.layers[i]
	if l.eigA != nil && l.eigG != nil && l.eigVersion == k.statVersion {
		return nil
	}
	// Scale by 1 is the copy into reused storage; EigenSym makes the one
	// fresh copy, which becomes Q.
	a := l.symA.Scale(1, l.A).Symmetrize()
	g := l.symG.Scale(1, l.G).Symmetrize()
	eigA, err := tensor.EigenSym(a)
	if err != nil {
		return fmt.Errorf("kfac: layer %s factor A: %w", l.name, err)
	}
	eigG, err := tensor.EigenSym(g)
	if err != nil {
		return fmt.Errorf("kfac: layer %s factor G: %w", l.name, err)
	}
	l.eigA, l.eigG = eigA, eigG
	l.eigVersion = k.statVersion
	return nil
}

// EigenCached reports whether layer i's decomposition (or inverse, in
// CholeskyInverse mode) is already valid for the current factor state, i.e.
// whether RefreshEigen would be a cache hit. Timing harnesses use this to
// avoid charging eigendecomposition cost for skipped work.
func (k *KFAC) EigenCached(i int) bool {
	l := k.layers[i]
	if k.cfg.Inversion == CholeskyInverse {
		return l.invA != nil && l.invG != nil && l.invVersion == k.statVersion
	}
	return l.eigA != nil && l.eigG != nil && l.eigVersion == k.statVersion
}

// Precondition computes layer i's preconditioned gradient
// P = Q_A [(Q_Aᵀ Ĝ Q_G) ⊘ (λ_A λ_Gᵀ + γ)] Q_Gᵀ (Eq. 2) from the layer's
// current (already averaged) gradient and returns it flattened as float32 —
// the exact payload of the paper's "KFAC Allgather". RefreshEigen must have
// succeeded at least once for the layer.
func (k *KFAC) Precondition(i int) ([]float32, error) {
	if k.cfg.Inversion == CholeskyInverse {
		return k.preconditionCholesky(i)
	}
	l := k.layers[i]
	if l.eigA == nil || l.eigG == nil {
		return nil, fmt.Errorf("kfac: layer %s preconditioned before eigendecomposition", l.name)
	}
	grad := l.layer.KFACParam().Grad
	// V = Q_Aᵀ · Ĝ · Q_G.
	tmp := l.tmp.TMatMul(l.eigA.Q, grad)
	v := l.v.MatMul(tmp, l.eigG.Q)
	// Divide elementwise by the damped Kronecker eigenvalues.
	for r := 0; r < v.Rows; r++ {
		la := l.eigA.Values[r]
		if la < 0 {
			la = 0
		}
		for c := 0; c < v.Cols; c++ {
			lg := l.eigG.Values[c]
			if lg < 0 {
				lg = 0
			}
			v.Data[r*v.Cols+c] /= la*lg + k.cfg.Damping
		}
	}
	// P = Q_A · V · Q_Gᵀ.
	tmp2 := l.tmp2.MatMul(l.eigA.Q, v)
	p := l.pre.MatMulTPacked(tmp2, l.eigG.Q, &l.qGT)
	l.precond = p
	out := make([]float32, len(p.Data))
	for j, x := range p.Data {
		out[j] = float32(x)
	}
	return out, nil
}

// SetPreconditioned installs a (possibly compression-round-tripped)
// preconditioned gradient for layer i, as received from the all-gather.
func (k *KFAC) SetPreconditioned(i int, vals []float32) error {
	l := k.layers[i]
	p := l.layer.KFACParam()
	if len(vals) != p.W.Rows*p.W.Cols {
		return fmt.Errorf("kfac: layer %s preconditioned gradient has %d values, want %d",
			l.name, len(vals), p.W.Rows*p.W.Cols)
	}
	m := &l.pre
	if len(m.Data) != len(vals) {
		*m = *tensor.New(p.W.Rows, p.W.Cols)
	}
	for j, v := range vals {
		m.Data[j] = float64(v)
	}
	l.precond = m
	return nil
}

// ApplyUpdate performs the momentum-SGD update with the installed
// preconditioned gradients, KL-clips the overall step, updates the
// non-K-FAC parameters from their plain gradients, and advances the step
// counter.
func (k *KFAC) ApplyUpdate(lr float64) error {
	// During warmup the factors' running averages are still cold;
	// fall back to the raw gradient for the update direction.
	warmup := k.step < k.cfg.WarmupSteps
	updateOf := func(l *layerState) *tensor.Matrix {
		if warmup {
			return l.layer.KFACParam().Grad
		}
		return l.precond
	}
	// KL clipping factor ν = min(1, sqrt(KLClip / (lr²·Σ⟨P, Ĝ⟩))).
	nu := 1.0
	if k.cfg.KLClip > 0 {
		var vg float64
		for _, l := range k.layers {
			if l.precond == nil {
				return fmt.Errorf("kfac: layer %s has no preconditioned gradient", l.name)
			}
			grad := l.layer.KFACParam().Grad
			for j, p := range updateOf(l).Data {
				vg += p * grad.Data[j]
			}
		}
		if vg > 0 {
			nu = math.Min(1, math.Sqrt(k.cfg.KLClip/(lr*lr*vg)))
		}
	}
	for _, l := range k.layers {
		if l.precond == nil {
			return fmt.Errorf("kfac: layer %s has no preconditioned gradient", l.name)
		}
		p := l.layer.KFACParam()
		src := updateOf(l)
		if l.vel == nil {
			l.vel = make([]float64, len(p.W.Data))
		}
		for j := range p.W.Data {
			g := nu*src.Data[j] + k.cfg.WeightDecay*p.W.Data[j]
			l.vel[j] = k.cfg.Momentum*l.vel[j] + g
			p.W.Data[j] -= lr * l.vel[j]
		}
		l.precond = nil
	}
	for _, p := range k.others {
		v := k.otherVel[p]
		if v == nil {
			v = make([]float64, len(p.W.Data))
			k.otherVel[p] = v
		}
		for j := range p.W.Data {
			g := p.Grad.Data[j] + k.cfg.WeightDecay*p.W.Data[j]
			v[j] = k.cfg.Momentum*v[j] + g
			p.W.Data[j] -= lr * v[j]
		}
	}
	k.step++
	return nil
}

// Step runs one complete single-process K-FAC iteration: fold in this
// batch's statistics, refresh eigendecompositions when due, precondition
// every layer and apply the update. Distributed harnesses call the
// individual stages instead, interleaving the collectives.
func (k *KFAC) Step(batchSize int, lr float64) error {
	k.AccumulateStats(batchSize)
	if err := k.CommitCovariances(k.PendingCovariances(), 1); err != nil {
		return err
	}
	if k.NeedsEigen() {
		for i := range k.layers {
			if err := k.RefreshEigen(i); err != nil {
				return err
			}
		}
	}
	for i := range k.layers {
		vals, err := k.Precondition(i)
		if err != nil {
			return err
		}
		if err := k.SetPreconditioned(i, vals); err != nil {
			return err
		}
	}
	return k.ApplyUpdate(lr)
}

// FactorDims returns the (A dim, G dim) pair for layer i, used by the
// timing model for eigendecomposition cost.
func (k *KFAC) FactorDims(i int) (int, int) {
	l := k.layers[i]
	return l.A.Rows, l.G.Rows
}
