package kfac

import (
	"errors"
	"fmt"
	"math"

	"compso/internal/tensor"
)

// ErrNonFiniteFactor reports that a committed Kronecker factor carries
// non-finite statistics (NaN/Inf traces). It surfaces instead of letting a
// poisoned factor silently corrupt the cached inverses: rate-1 payload
// corruption can feed non-finite gradients into the factor updates, a NaN
// trace passes a plain `> 0` guard (NaN compares false, leaving pi = 1),
// and the damped solve then bakes NaN into invA/invG for every later step.
var ErrNonFiniteFactor = errors.New("kfac: non-finite factor statistics")

// isFinite reports whether x is neither NaN nor ±Inf.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Inversion selects how the Fisher-factor inverse is applied (§2.2: KAISA
// "employs an alternate implicit inversion method for FIM to further
// optimize the process").
type Inversion int

const (
	// EigenDecomp preconditions through the eigendecomposition route of
	// Eq. 2 — the default, required for exact damping (A⊗G + γI)⁻¹.
	EigenDecomp Inversion = iota
	// CholeskyInverse preconditions with explicitly inverted factors under
	// factored Tikhonov damping: (A + π√γ·I)⁻¹ Ĝ (G + √γ/π·I)⁻¹ with
	// π = √(‖A‖/dim_A ÷ ‖G‖/dim_G) — KAISA's implicit-inversion method.
	// It avoids the eigendecomposition entirely at the cost of an
	// approximate damping split.
	CholeskyInverse
)

// String implements fmt.Stringer.
func (i Inversion) String() string {
	switch i {
	case EigenDecomp:
		return "eigendecomposition"
	case CholeskyInverse:
		return "cholesky-inverse"
	default:
		return fmt.Sprintf("Inversion(%d)", int(i))
	}
}

// refreshCholesky computes and caches the damped factor inverses for
// layer i, skipping the solve when the cached inverses already correspond
// to the current committed factors.
func (k *KFAC) refreshCholesky(i int) error {
	l := k.layers[i]
	if l.invA != nil && l.invG != nil && l.invVersion == k.statVersion {
		return nil
	}
	a := l.A.Clone().Symmetrize()
	g := l.G.Clone().Symmetrize()
	// Factored Tikhonov: split the damping between the factors in
	// proportion to their average eigenvalue (trace/dim), as KAISA does.
	traceA := a.Trace() / float64(a.Rows)
	traceG := g.Trace() / float64(g.Rows)
	if !isFinite(traceA) || !isFinite(traceG) {
		return fmt.Errorf("%w: layer %s average eigenvalues A=%g G=%g",
			ErrNonFiniteFactor, l.name, traceA, traceG)
	}
	pi := 1.0
	if traceA > 0 && traceG > 0 {
		pi = math.Sqrt(traceA / traceG)
	}
	sqrtGamma := math.Sqrt(k.cfg.Damping)
	a.AddDiag(float64(pi * sqrtGamma)) // rounded here, not fused into AddDiag's +=
	g.AddDiag(sqrtGamma / pi)
	invA, err := tensor.InverseSPD(a)
	if err != nil {
		return fmt.Errorf("kfac: layer %s invert A: %w", l.name, err)
	}
	invG, err := tensor.InverseSPD(g)
	if err != nil {
		return fmt.Errorf("kfac: layer %s invert G: %w", l.name, err)
	}
	l.invA, l.invG = invA, invG
	l.invVersion = k.statVersion
	return nil
}

// preconditionCholesky computes P = A⁻¹ · Ĝ · G⁻¹ for layer i.
func (k *KFAC) preconditionCholesky(i int) ([]float32, error) {
	l := k.layers[i]
	if l.invA == nil || l.invG == nil {
		return nil, fmt.Errorf("kfac: layer %s preconditioned before factor inversion", l.name)
	}
	grad := l.layer.KFACParam().Grad
	tmp := l.tmp.MatMul(l.invA, grad)
	p := l.pre.MatMul(tmp, l.invG)
	l.precond = p
	out := make([]float32, len(p.Data))
	for j, x := range p.Data {
		out[j] = float32(x)
	}
	return out, nil
}
