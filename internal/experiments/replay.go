package experiments

import (
	"compso/internal/cluster"
	"compso/internal/des"
	"compso/internal/gpusim"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/train"
)

// Every timing in this package is a replay of the trainer's own lowering:
// train.Lower emits the des.Program of a train.Config over a
// train.StepModel, and a des.World of the platform runs it. The overlap
// judge replays the trainer's step as it is; the timing figures replay
// figureModel. Both run on the platform's one fabric: the step-level
// schedules of cluster.EngineFor, switch contention included.

// replayed is a finished replay's readings.
type replayed struct {
	makespan, wire float64            // the slowest clock; the collectives' summed makespans
	hidden         float64            // rank 0's hidden share of collective latency
	mean           map[string]float64 // each category's seconds averaged over ranks
	ops            map[string]int     // the program's ops per category
}

// replay lowers cfg over m and runs it on a World of the platform. Every
// caller passes a config Lower accepts, so a refusal is a bug and panics.
func replay(plat cluster.Config, cfg train.Config, m train.StepModel) replayed {
	prog, err := train.Lower(cfg, m)
	if err != nil {
		panic(err)
	}
	w := des.NewWorld(plat, cfg.Workers)
	defer w.Release()
	des.RunOnWorld(w, prog)
	r := replayed{makespan: w.MaxTime(), ops: map[string]int{}}
	r.mean, _ = w.Merged()
	for k := range r.mean {
		r.mean[k] /= float64(cfg.Workers)
	}
	r.wire, _ = w.ScheduleSeconds()
	if exposed, total := w.OverlapOf(0); total > 0 {
		r.hidden = 1 - exposed/total
	}
	for _, op := range prog {
		r.ops[op.Category]++
	}
	return r
}

// figureSteps is how many steps a timing figure replays: one period of the
// slowest refresh.
const figureSteps = 100

// figureStep is the training loop the timing figures replay: figureSteps
// sequential K-FAC steps on gpus ranks, aggregation m, factors refreshed
// every 10 steps and eigendecompositions every 100 (KAISA's amortization).
func figureStep(gpus, m int) train.Config {
	return train.Config{Workers: gpus, Iters: figureSteps, UseKFAC: true, KFAC: kfac.Config{InvFreq: 100},
		StatFreq: 10, AggregationM: m}
}

// figureModel is the step the timing figures price: prof on the A100
// compute model, layer li shipping payload(li) bytes, frames charged on
// pipe (nil: raw FP32). Three modelling choices are data here:
func figureModel(prof modelzoo.Profile, pipe *gpusim.Pipeline, payload func(layer int) int) train.StepModel {
	m := train.ProfileModel(prof, pipe, payload)
	// DDP bucketing hides the gradient all-reduce behind backward.
	m.Grads = nil
	// The factors are symmetric: only their triangular half is summed.
	m.CovElems = prof.CovarianceFloats() / 2
	// Data loading, norm layers and the optimizer step.
	m.Others = 0.30 * m.FwdBwd
	return m
}

// ratioPayload ships layer li of prof compressed by cr.
func ratioPayload(prof modelzoo.Profile, cr float64) func(int) int {
	return func(li int) int { return int(float64(4*prof.Layers[li].Params()) / cr) }
}

// gatherSeconds is the wire time of one step's K-FAC all-gathers at ratio
// cr without (de)compression: only the exchange's frames, one group per
// collective as the overlap schedule issues them.
func gatherSeconds(plat cluster.Config, prof modelzoo.Profile, gpus, m int, cr float64) float64 {
	cfg := figureStep(gpus, m)
	cfg.Iters, cfg.Overlap = 1, true
	sm := train.StepModel{Layers: train.ProfileModel(prof, nil, ratioPayload(prof, cr)).Layers}
	return replay(plat, cfg, sm).wire
}
