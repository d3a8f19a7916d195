package kfac

import (
	"fmt"
	"math"

	"compso/internal/nn"
	"compso/internal/tensor"
)

// Shampoo implements the Shampoo second-order optimizer [Gupta et al.,
// ICML'18], one of the second-order family the paper's introduction
// surveys alongside K-FAC. For a weight matrix W with gradient G it
// maintains the factored statistics L += G·Gᵀ and R += Gᵀ·G and
// preconditions with P = L^{-1/4} · G · R^{-1/4}.
//
// Shampoo produces per-layer preconditioned gradient matrices of exactly
// the same shape as K-FAC's, so the COMPSO compression pipeline applies to
// it unchanged — demonstrating that the compressor generalizes across
// second-order optimizers.
type Shampoo struct {
	// Epsilon regularizes the inverse roots.
	Epsilon float64
	// UpdateFreq controls how often the inverse roots are recomputed.
	UpdateFreq int
	// Momentum applies classical momentum to the preconditioned update.
	Momentum float64

	step   int
	layers []*shampooLayer
	others []*nn.Param
	velo   map[*nn.Param][]float64
}

type shampooLayer struct {
	param        *nn.Param
	l, r         *tensor.Matrix // factored statistics
	lRoot, rRoot *tensor.Matrix // cached inverse fourth roots
	gradT        tensor.Matrix  // the gradient's transpose, packed for MatMulT
	vel          []float64
}

// NewShampoo builds the optimizer over the model's matrix-shaped
// parameters (the same layers K-FAC preconditions); the rest fall back to
// momentum SGD.
func NewShampoo(model *nn.Sequential, epsilon float64, updateFreq int) *Shampoo {
	if epsilon <= 0 {
		panic(fmt.Sprintf("kfac: shampoo epsilon %g <= 0", epsilon))
	}
	if updateFreq <= 0 {
		updateFreq = 1
	}
	s := &Shampoo{Epsilon: epsilon, UpdateFreq: updateFreq, Momentum: 0.9, velo: map[*nn.Param][]float64{}}
	_, kfacLayers := model.KFACLayers()
	matrixParams := map[*nn.Param]bool{}
	for _, l := range kfacLayers {
		p := l.KFACParam()
		matrixParams[p] = true
		s.layers = append(s.layers, &shampooLayer{
			param: p,
			l:     tensor.New(p.W.Rows, p.W.Rows),
			r:     tensor.New(p.W.Cols, p.W.Cols),
		})
	}
	for _, p := range model.Params() {
		if !matrixParams[p] {
			s.others = append(s.others, p)
		}
	}
	return s
}

// NumLayers returns the number of preconditioned layers.
func (s *Shampoo) NumLayers() int { return len(s.layers) }

// Precondition computes layer i's Shampoo-preconditioned gradient
// flattened as float32 — interchangeable with KFAC.Precondition for
// compression and all-gather purposes.
func (s *Shampoo) Precondition(i int) ([]float32, error) {
	l := s.layers[i]
	grad := l.param.Grad
	// Update statistics.
	l.l.AXPY(1, tensor.New(0, 0).MatMulTPacked(grad, grad, &l.gradT))
	l.r.AXPY(1, tensor.New(0, 0).TMatMul(grad, grad))
	if s.step%s.UpdateFreq == 0 || l.lRoot == nil {
		var err error
		l.lRoot, err = inverseFourthRoot(l.l, s.Epsilon)
		if err != nil {
			return nil, fmt.Errorf("kfac: shampoo layer %s L factor: %w", l.param.Name, err)
		}
		l.rRoot, err = inverseFourthRoot(l.r, s.Epsilon)
		if err != nil {
			return nil, fmt.Errorf("kfac: shampoo layer %s R factor: %w", l.param.Name, err)
		}
	}
	tmp := tensor.New(0, 0).MatMul(l.lRoot, grad)
	p := tensor.New(0, 0).MatMul(tmp, l.rRoot)
	out := make([]float32, len(p.Data))
	for j, v := range p.Data {
		out[j] = float32(v)
	}
	return out, nil
}

// Step performs one complete optimizer step: precondition every layer and
// apply momentum updates (plus plain SGD for non-matrix parameters).
func (s *Shampoo) Step(lr float64) error {
	for i, l := range s.layers {
		vals, err := s.Precondition(i)
		if err != nil {
			return err
		}
		if l.vel == nil {
			l.vel = make([]float64, len(l.param.W.Data))
		}
		for j := range l.param.W.Data {
			l.vel[j] = s.Momentum*l.vel[j] + float64(vals[j])
			l.param.W.Data[j] -= lr * l.vel[j]
		}
	}
	for _, p := range s.others {
		v := s.velo[p]
		if v == nil {
			v = make([]float64, len(p.W.Data))
			s.velo[p] = v
		}
		for j := range p.W.Data {
			v[j] = s.Momentum*v[j] + p.Grad.Data[j]
			p.W.Data[j] -= lr * v[j]
		}
	}
	s.step++
	return nil
}

// inverseFourthRoot computes (m + εI)^{-1/4} via eigendecomposition.
func inverseFourthRoot(m *tensor.Matrix, eps float64) (*tensor.Matrix, error) {
	damped := m.Clone().Symmetrize().AddDiag(eps)
	e, err := tensor.EigenSym(damped)
	if err != nil {
		return nil, err
	}
	n := len(e.Values)
	// Q · diag(λ^{-1/4}) · Qᵀ; the damped copy has served and holds Q·diag.
	qd := damped
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lam := e.Values[j]
			if lam < eps {
				lam = eps
			}
			qd.Data[i*n+j] = e.Q.Data[i*n+j] * math.Pow(lam, -0.25)
		}
	}
	return tensor.New(0, 0).MatMulT(qd, e.Q), nil
}
