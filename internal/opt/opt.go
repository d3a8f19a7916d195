// Package opt provides the first-order optimizer the paper's baselines
// train with (SGD with momentum) plus the two learning-rate schedules COMPSO's
// iteration-wise adaptive compression keys off (§4.3, Algorithm 1): StepLR
// with discrete decay points and SmoothLR with warmup followed by cosine
// decay.
package opt

import (
	"fmt"
	"math"

	"compso/internal/nn"
)

// SGD is stochastic gradient descent with classical momentum and optional
// weight decay.
type SGD struct {
	Momentum    float64
	WeightDecay float64
	velocity    map[*nn.Param][]float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(momentum, weightDecay float64) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, velocity: make(map[*nn.Param][]float64)}
}

// Step applies one update with the given learning rate; callers zero
// gradients between iterations.
func (s *SGD) Step(params []*nn.Param, lr float64) {
	for _, p := range params {
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, len(p.W.Data))
			s.velocity[p] = v
		}
		for i := range p.W.Data {
			g := p.Grad.Data[i] + s.WeightDecay*p.W.Data[i]
			v[i] = s.Momentum*v[i] + g
			p.W.Data[i] -= lr * v[i]
		}
	}
}

// Schedule yields the learning rate for an iteration and exposes the
// stage structure COMPSO's adaptive compression follows.
type Schedule interface {
	Name() string
	// LR returns the learning rate at 0-based iteration t.
	LR(t int) float64
}

// StepLR multiplies BaseLR by Gamma at each iteration listed in Drops.
// ResNet-50 and Mask R-CNN use this schedule; COMPSO compresses
// aggressively before the first drop (Algorithm 1).
type StepLR struct {
	BaseLR float64
	Drops  []int // ascending iteration indices of the decay points
	Gamma  float64
}

// Name implements Schedule.
func (s *StepLR) Name() string { return "StepLR" }

// LR implements Schedule.
func (s *StepLR) LR(t int) float64 {
	lr := s.BaseLR
	for _, d := range s.Drops {
		if t >= d {
			lr *= s.Gamma
		}
	}
	return lr
}

// FirstDrop returns the iteration of the first decay (MaxInt when none),
// the boundary between COMPSO's aggressive and conservative phases.
func (s *StepLR) FirstDrop() int {
	if len(s.Drops) == 0 {
		return math.MaxInt
	}
	return s.Drops[0]
}

// SmoothLR is linear warmup followed by cosine decay to MinLR at Total
// iterations — the schedule of the GPT-neo and BERT runs.
type SmoothLR struct {
	BaseLR float64
	MinLR  float64
	Warmup int
	Total  int
}

// Name implements Schedule.
func (s *SmoothLR) Name() string { return "SmoothLR" }

// LR implements Schedule.
func (s *SmoothLR) LR(t int) float64 {
	if s.Total <= 0 {
		return s.BaseLR
	}
	if t < s.Warmup && s.Warmup > 0 {
		return s.BaseLR * float64(t+1) / float64(s.Warmup)
	}
	progress := float64(t-s.Warmup) / math.Max(1, float64(s.Total-s.Warmup))
	if progress > 1 {
		progress = 1
	}
	return s.MinLR + (s.BaseLR-s.MinLR)*(1+math.Cos(math.Pi*progress))/2
}

// Validate checks schedule invariants, returning a descriptive error for
// misconfiguration (negative rates, unsorted drops).
func Validate(s Schedule) error {
	switch sc := s.(type) {
	case *StepLR:
		if sc.BaseLR <= 0 || sc.Gamma <= 0 || sc.Gamma > 1 {
			return fmt.Errorf("opt: StepLR base %g gamma %g", sc.BaseLR, sc.Gamma)
		}
		for i := 1; i < len(sc.Drops); i++ {
			if sc.Drops[i] <= sc.Drops[i-1] {
				return fmt.Errorf("opt: StepLR drops not ascending at %d", i)
			}
		}
	case *SmoothLR:
		if sc.BaseLR <= 0 || sc.MinLR < 0 || sc.Total <= 0 || sc.Warmup < 0 {
			return fmt.Errorf("opt: SmoothLR base %g min %g total %d warmup %d", sc.BaseLR, sc.MinLR, sc.Total, sc.Warmup)
		}
	}
	return nil
}
