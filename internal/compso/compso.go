// Package compso implements COMPSO's adaptive control layer (§4.3,
// Algorithm 1): the iteration-wise error-bound schedule that follows the
// learning-rate schedule (aggressive filter+SR early, conservative SR-only
// or decayed bounds late), and the layer-wise aggregation that batches
// small layers into one compression + all-gather unit (§4.4).
package compso

import (
	"fmt"
	"math"

	"compso/internal/compress"
	"compso/internal/encoding"
	"compso/internal/opt"
)

// Strategy is the compression setting for one iteration.
type Strategy struct {
	// FilterEnabled selects aggressive (filter+SR) vs conservative
	// (SR-only) compression.
	FilterEnabled bool
	// EBFilter and EBQuant are the error bounds in force.
	EBFilter, EBQuant float64
}

// String renders the strategy for logs and trace events, e.g.
// "filter+SR(ebf=4e-3,ebq=4e-3)" or "SR-only(ebq=2e-3)".
func (s Strategy) String() string {
	if s.FilterEnabled {
		return fmt.Sprintf("filter+SR(ebf=%g,ebq=%g)", s.EBFilter, s.EBQuant)
	}
	return fmt.Sprintf("SR-only(ebq=%g)", s.EBQuant)
}

// Controller realizes Algorithm 1 for a given learning-rate schedule.
type Controller struct {
	// Schedule drives the stage transitions: *opt.StepLR switches from
	// loose to tight bounds at the first LR drop; *opt.SmoothLR decays the
	// bounds by Alpha across Stages equal slices of TotalIters.
	Schedule opt.Schedule
	// LooseEBF/LooseEBQ are the aggressive-phase bounds (paper: 4e-3).
	LooseEBF, LooseEBQ float64
	// TightEBQ is the conservative-phase SR bound (paper: 2e-3). The
	// conservative phase of StepLR disables the filter entirely.
	TightEBQ float64
	// Stages is z, the number of SmoothLR stages.
	Stages int
	// Alpha is the per-stage error-bound decay factor for SmoothLR.
	Alpha float64
	// TotalIters is T.
	TotalIters int
}

// DefaultController returns the paper's configuration for the given
// schedule: eb 4e-3 aggressive, 2e-3 conservative, four SmoothLR stages
// with α chosen so the bound lands on 2e-3 in the final stage.
func DefaultController(schedule opt.Schedule, totalIters int) *Controller {
	return &Controller{
		Schedule: schedule,
		LooseEBF: 4e-3, LooseEBQ: 4e-3, TightEBQ: 2e-3,
		Stages:     4,
		Alpha:      math.Pow(0.5, 1.0/3), // 4e-3·α³ = 2e-3
		TotalIters: totalIters,
	}
}

// Validate reports configuration errors.
func (c *Controller) Validate() error {
	if c.LooseEBF <= 0 || c.LooseEBQ <= 0 || c.TightEBQ <= 0 {
		return fmt.Errorf("compso: non-positive error bounds %+v", c)
	}
	if c.Stages <= 0 || c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("compso: stages %d alpha %g", c.Stages, c.Alpha)
	}
	if c.TotalIters <= 0 {
		return fmt.Errorf("compso: total iterations %d", c.TotalIters)
	}
	return nil
}

// StrategyAt returns the compression strategy for iteration t (Algorithm 1
// lines 6–24).
func (c *Controller) StrategyAt(t int) Strategy {
	switch s := c.Schedule.(type) {
	case *opt.StepLR:
		if t < s.FirstDrop() {
			return Strategy{FilterEnabled: true, EBFilter: c.LooseEBF, EBQuant: c.LooseEBQ}
		}
		return Strategy{FilterEnabled: false, EBQuant: c.TightEBQ}
	case *opt.SmoothLR:
		stageLen := (c.TotalIters + c.Stages - 1) / c.Stages
		stage := t / stageLen
		if stage >= c.Stages {
			stage = c.Stages - 1
		}
		decay := math.Pow(c.Alpha, float64(stage))
		return Strategy{
			FilterEnabled: true,
			EBFilter:      c.LooseEBF * decay,
			EBQuant:       c.LooseEBQ * decay,
		}
	default:
		// Unknown schedules get the conservative setting.
		return Strategy{FilterEnabled: false, EBQuant: c.TightEBQ}
	}
}

// Apply configures a COMPSO compressor for iteration t.
func (c *Controller) Apply(t int, comp *compress.COMPSO) {
	s := c.StrategyAt(t)
	comp.FilterEnabled = s.FilterEnabled
	comp.EBFilter = s.EBFilter
	comp.EBQuant = s.EBQuant
}

// NewCompressor returns a COMPSO compressor with the given back-end codec
// (nil → ANS) seeded deterministically per worker rank.
func NewCompressor(codec encoding.Codec, rank int, seed int64) *compress.COMPSO {
	comp := compress.NewCOMPSO(seed*1000 + int64(rank))
	if codec != nil {
		comp.Codec = codec
	}
	return comp
}

// Concat flattens per-layer gradients into one aggregation buffer.
func Concat(grads [][]float32) []float32 {
	total := 0
	for _, g := range grads {
		total += len(g)
	}
	out := make([]float32, 0, total)
	for _, g := range grads {
		out = append(out, g...)
	}
	return out
}

// Split reverses Concat given the original per-layer lengths. It returns an
// error if the flat buffer does not match the lengths exactly.
func Split(flat []float32, lengths []int) ([][]float32, error) {
	total := 0
	for _, l := range lengths {
		total += l
	}
	if total != len(flat) {
		return nil, fmt.Errorf("compso: flat buffer %d does not match lengths sum %d", len(flat), total)
	}
	out := make([][]float32, len(lengths))
	pos := 0
	for i, l := range lengths {
		out[i] = flat[pos : pos+l]
		pos += l
	}
	return out, nil
}
