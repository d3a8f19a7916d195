package train

import (
	"fmt"

	"compso/internal/compress"
	"compso/internal/des"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/xrand"
)

// Mega-scale communication simulation. The training loop in this package
// runs P real model replicas, so it cannot scale past the paper's world
// sizes. BuildCommProgram is its discrete-event counterpart: the
// compression payload math runs ONCE on a model rank — a synthetic K-FAC
// gradient is compressed through the real compressor to calibrate the blob
// size — and the profile's step model is lowered like the trainer's own
// step (lower.go), so a des.World replays thousands of ranks in one process.

const (
	// commSimStatFreq is the covariance cadence in steps (the paper's
	// amortization setting); eigendecompositions follow
	// kfac.DefaultConfig's InvFreq, the same 10.
	commSimStatFreq = 10
	// calibElems caps the gradient compressed for calibration; the
	// measured ratio extrapolates to the full gradient.
	calibElems = 1 << 20
)

// CommSimConfig selects the workload whose communication profile is
// simulated.
type CommSimConfig struct {
	// Model is the modelzoo profile name (e.g. "resnet50", "bertlarge").
	Model string
	// Compressor is the compress registry name ("" or "none" disables
	// compression: gradients ship as raw FP32).
	Compressor string
	// Steps is how many training iterations to emit.
	Steps int
	// KFAC selects the second-order pipeline: covariance all-reduces,
	// owned-layer eigendecompositions and a compressed preconditioned-
	// gradient exchange on top of the gradient sync. Off simulates the
	// first-order loop: the bucketed gradient all-reduce uncompressed, the
	// compressed blob all-gather otherwise.
	KFAC bool
	// Seed drives the synthetic calibration gradient.
	Seed int64
	// ElemScale scales every collective's element/byte sizes (0 or 1 =
	// full size). The bit-identity legs use a small scale so the
	// goroutine engine's REAL payload buffers stay affordable — engine
	// equivalence only needs both engines replaying the same program, not
	// the full-size one.
	ElemScale float64
}

// CommSimInfo reports the calibration the program was built from.
type CommSimInfo struct {
	Model string `json:"model"`
	// GradElems is the full FP32 gradient length.
	GradElems int `json:"grad_elems"`
	// BlobBytes is the extrapolated compressed-gradient wire size.
	BlobBytes int `json:"blob_bytes"`
	// Ratio is the measured compression ratio (1 when uncompressed).
	Ratio float64 `json:"ratio"`
	// Ops is the emitted program length.
	Ops int `json:"ops"`
}

// BuildCommProgram calibrates the compressor on the model rank and lowers
// cfg.Steps sequential training iterations of the profile for a world of
// p ranks. A first-order run of a ring family (powersgd) is an error: it
// trains on the ring all-reduce, which is not lowered.
func BuildCommProgram(c CommSimConfig, p int) (des.Program, CommSimInfo, error) {
	if c.Steps <= 0 {
		c.Steps = 10
	}
	if c.Model == "" {
		c.Model = "ResNet-50"
	}
	prof, err := modelzoo.ByName(c.Model)
	if err != nil {
		return nil, CommSimInfo{}, err
	}
	compressed := c.Compressor != "" && c.Compressor != "none"
	if compressed && !c.KFAC {
		comp, err := compress.ByName(c.Compressor, compress.Options{Seed: c.Seed})
		if err != nil {
			return nil, CommSimInfo{}, err
		}
		if ar, _ := ringCompressor(comp); ar != nil {
			return nil, CommSimInfo{}, fmt.Errorf("train: first-order %q trains on the ring all-reduce, which BuildCommProgram does not lower", c.Compressor)
		}
	}
	ratio, err := calibrateRatio(prof, c)
	if err != nil {
		return nil, CommSimInfo{}, err
	}

	scale := c.ElemScale
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	m := ProfileModel(prof, nil, func(li int) int {
		if !compressed {
			return 4 * scaled(prof.Layers[li].Params(), scale)
		}
		return scaled(int(float64(4*prof.Layers[li].Params())/ratio), scale)
	})
	for i := range m.Layers {
		m.Grads[i] = scaled(m.Grads[i], scale)
		m.Layers[i].Elems = m.Grads[i]
	}
	m.CovElems = scaled(m.CovElems, scale)
	if compressed {
		m.Pipeline = &fused
	}
	prog, err := Lower(Config{Workers: p, Iters: c.Steps, UseKFAC: c.KFAC, KFAC: kfac.DefaultConfig(), StatFreq: commSimStatFreq}, m)
	if err != nil {
		return nil, CommSimInfo{}, err
	}
	elems := scaled(prof.TotalParams(), scale)
	return prog, CommSimInfo{Model: prof.Name, GradElems: elems, BlobBytes: scaled(int(float64(4*elems)/ratio), 1),
		Ratio: ratio, Ops: len(prog)}, nil
}

// calibrateRatio compresses one synthetic gradient (capped at calibElems)
// through the configured compressor and returns the measured ratio.
func calibrateRatio(prof modelzoo.Profile, c CommSimConfig) (float64, error) {
	if c.Compressor == "" || c.Compressor == "none" {
		return 1, nil
	}
	comp, err := compress.ByName(c.Compressor, compress.Options{Seed: c.Seed})
	if err != nil {
		return 0, err
	}
	rng := xrand.NewSeeded(c.Seed)
	flat := make([]float32, 0, calibElems)
	for li := range prof.Layers {
		remaining := calibElems - len(flat)
		if remaining <= 0 {
			break
		}
		flat = append(flat, prof.SyntheticGradient(rng, li, remaining)...)
	}
	blob, err := comp.Compress(flat)
	if err != nil {
		return 0, fmt.Errorf("train: comm-sim calibration: %w", err)
	}
	ratio := float64(4*len(flat)) / float64(len(blob))
	if ratio <= 0 {
		return 0, fmt.Errorf("train: comm-sim calibration produced ratio %g", ratio)
	}
	return ratio, nil
}

// scaled applies the ElemScale size reduction, keeping sizes positive.
func scaled(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 1 {
		return 1
	}
	return s
}
