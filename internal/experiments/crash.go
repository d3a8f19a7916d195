package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/fault"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/obs"
	"compso/internal/opt"
	"compso/internal/train"
)

// Recovery-time judge: how should the checkpoint interval be chosen? Two
// legs answer it. The analytic leg sweeps the interval over the four
// evaluation profiles, pricing each choice as save overhead (checkpoint
// bytes over storage bandwidth, paid every interval) against expected lost
// work (half an interval of re-computed steps plus a restore, paid per
// crash) — the classic first-order checkpoint model, whose optimum is
// Young's approximation √(2·c/(λ·t)). The measured leg runs a real
// crash-and-restore on the proxy cluster and reports the observed recovery
// cost next to the bit-identity verdict, so the analytic pricing stays
// anchored to the simulator's actual behavior.

// crashModel fixes the analytic leg's environment: a per-step crash hazard
// typical of multi-hour jobs on preemptible capacity, parallel-filesystem
// storage bandwidth, and the survivors' detection timeout.
const (
	// crashHazard is the per-step crash probability λ.
	crashHazard = 1e-3
	// storageBytesPerSec prices checkpoint writes and restores.
	storageBytesPerSec = 2e9
	// detectSeconds is the peer-loss detection timeout survivors pay.
	detectSeconds = 0.25
	// crashSweepGPUs sizes the analytic cluster.
	crashSweepGPUs = 64
)

// CrashRow is one (model, checkpoint interval) cell of the analytic sweep.
type CrashRow struct {
	Model         string
	IntervalSteps int
	// CkptMB is the checkpoint size (model parameters plus K-FAC factor
	// state, FP64).
	CkptMB float64
	// SaveSecPer1k is the save overhead per 1000 steps.
	SaveSecPer1k float64
	// LostSecPerCrash is the expected lost work a single crash costs at
	// this cadence: detection, restore, and half an interval of replay.
	LostSecPerCrash float64
	// OverheadSecPer1k is the total expected overhead per 1000 steps at
	// the model's crash hazard.
	OverheadSecPer1k float64
	// Best marks the interval minimizing OverheadSecPer1k for the model;
	// YoungSteps is the closed-form optimum √(2c/(λt)) for reference.
	Best       bool
	YoungSteps int
}

// CrashMeasured is the measured proxy leg: one real crash-and-restore run
// on the simulated cluster against its uninterrupted twin.
type CrashMeasured struct {
	Restarts  int
	Saves     int64
	Restores  int64
	CkptBytes int64
	// BitIdentical reports whether the recovered run reproduced the
	// uninterrupted run's final loss exactly.
	BitIdentical bool
	// RecoverySec is the extra simulated per-worker collective time the
	// crash cost (lost work priced by the accumulating AlgSeconds).
	RecoverySec float64
}

// crashCkptBytes estimates a profile's checkpoint size: FP64 model
// parameters plus the K-FAC covariance state (the owner-local
// decomposition caches are the same order as the factors).
func crashCkptBytes(p modelzoo.Profile) float64 {
	return 8 * float64(p.TotalParams()+p.CovarianceFloats())
}

// crashSweepIntervals is the analytic leg's cadence grid.
var crashSweepIntervals = []int{1, 2, 5, 10, 25, 50, 100, 250}

// CrashRecoverySweep prices the checkpoint-interval choice for each of the
// four evaluation profiles on Platform 1. For interval τ, step time t and
// save cost c the expected overhead per N steps is
//
//	(N/τ)·c + N·λ·(detect + restore + τ·t/2)
//
// and the returned rows mark both the grid minimum and Young's closed-form
// optimum.
func CrashRecoverySweep() ([]CrashRow, *Table) {
	cfg := cluster.Platform1()
	var rows []CrashRow
	for _, p := range modelzoo.All() {
		stepSec := IterationBreakdown(p, cfg, crashSweepGPUs, 1).Total
		bytes := crashCkptBytes(p)
		saveSec := bytes / storageBytesPerSec
		restoreSec := detectSeconds + bytes/storageBytesPerSec
		young := int(math.Max(1, math.Round(math.Sqrt(2*saveSec/(crashHazard*stepSec)))))
		const n = 1000.0
		best, bestOverhead := -1, math.Inf(1)
		start := len(rows)
		for _, tau := range crashSweepIntervals {
			lost := restoreSec + float64(tau)*stepSec/2
			overhead := n/float64(tau)*saveSec + n*crashHazard*lost
			if overhead < bestOverhead {
				best, bestOverhead = len(rows), overhead
			}
			rows = append(rows, CrashRow{
				Model: p.Name, IntervalSteps: tau,
				CkptMB:           bytes / 1e6,
				SaveSecPer1k:     n / float64(tau) * saveSec,
				LostSecPerCrash:  lost,
				OverheadSecPer1k: overhead,
				YoungSteps:       young,
			})
		}
		if best >= start {
			rows[best].Best = true
		}
	}

	tb := &Table{
		Title: fmt.Sprintf("Checkpoint-interval sweep (%d GPUs, λ=%g/step, %.0f GB/s storage)",
			crashSweepGPUs, crashHazard, storageBytesPerSec/1e9),
		Headers: []string{"model", "interval", "ckpt MB", "save s/1k", "lost s/crash", "overhead s/1k", "best", "young τ*"},
	}
	for _, r := range rows {
		mark := ""
		if r.Best {
			mark = "*"
		}
		tb.Rows = append(tb.Rows, []string{
			r.Model,
			fmt.Sprintf("%d", r.IntervalSteps),
			fmt.Sprintf("%.1f", r.CkptMB),
			fmt.Sprintf("%.2f", r.SaveSecPer1k),
			fmt.Sprintf("%.2f", r.LostSecPerCrash),
			fmt.Sprintf("%.2f", r.OverheadSecPer1k),
			mark,
			fmt.Sprintf("%d", r.YoungSteps),
		})
	}
	return rows, tb
}

// crashMeasuredTable renders the measured leg.
func crashMeasuredTable(m CrashMeasured) *Table {
	return &Table{
		Title:   "Measured crash-and-restore proxy leg (4 GPUs, K-FAC + COMPSO)",
		Headers: []string{"crashes", "restores", "saves", "ckpt bytes", "bit-identical", "recovery s/worker"},
		Rows: [][]string{{
			fmt.Sprint(m.Restarts), fmt.Sprint(m.Restores), fmt.Sprint(m.Saves), fmt.Sprint(m.CkptBytes),
			fmt.Sprint(m.BitIdentical), fmtF(m.RecoverySec, 4),
		}},
	}
}

// CrashMeasuredRun is the measured leg: a 4-GPU K-FAC + COMPSO proxy run
// that loses a worker mid-step and recovers from its last checkpoint, next
// to an uninterrupted twin with the same cadence. It verifies the recovery
// reproduced the twin's final loss bit-exactly and prices the crash as the
// extra accumulated per-worker collective seconds.
//
// iters <= 0 selects a small default budget suitable for CI.
func CrashMeasuredRun(iters int) (CrashMeasured, error) {
	if iters <= 0 {
		iters = 12
	}
	const seed = int64(42)
	build := func(rec *obs.Recorder, plan *fault.Plan) train.Config {
		return train.Config{
			BuildTask: func(rng *rand.Rand) *modelzoo.ProxyTask {
				return modelzoo.ProxyResNet(rng, seed)
			},
			Workers:  4,
			Platform: cluster.Platform1(),
			Iters:    iters,
			Seed:     seed,
			Schedule: &opt.StepLR{BaseLR: 0.03, Drops: []int{iters * 2 / 3}, Gamma: 0.1},
			UseKFAC:  true,
			KFAC:     kfac.DefaultConfig(),
			NewCompressor: func(rank int) compress.Compressor {
				return compso.NewCompressor(nil, rank, seed)
			},
			AggregationM: 2,
			EvalEvery:    max(1, iters/3),
			Obs:          rec,
			Fault:        plan,
			Checkpoint:   train.CheckpointConfig{Interval: max(1, iters/4)},
		}
	}
	crashRec := obs.NewRecorder()
	crashed, err := train.Run(build(crashRec, &fault.Plan{
		Seed: 2025,
		Crashes: []fault.WorkerCrash{{
			Rank: 1, Point: fault.CrashMidStep, Step: iters/2 + 1, DetectSec: detectSeconds,
		}},
	}))
	if err != nil {
		return CrashMeasured{}, fmt.Errorf("crash leg: %w", err)
	}
	plain, err := train.Run(build(obs.NewRecorder(), nil))
	if err != nil {
		return CrashMeasured{}, fmt.Errorf("uninterrupted leg: %w", err)
	}
	m := CrashMeasured{
		Restarts:     crashed.Restarts,
		Saves:        int64(crashRec.Counter("ckpt/saves").Value()),
		Restores:     int64(crashRec.Counter("ckpt/restores").Value()),
		CkptBytes:    int64(crashRec.Counter("ckpt/bytes").Value()),
		BitIdentical: crashed.FinalLoss == plain.FinalLoss && crashed.MeanCR == plain.MeanCR,
		RecoverySec:  sumValues(crashed.AlgSeconds) - sumValues(plain.AlgSeconds),
	}
	if m.Restarts == 0 || m.Restores == 0 {
		return m, fmt.Errorf("crash leg recovered %d times with %d restores; expected a real crash", m.Restarts, m.Restores)
	}
	if !m.BitIdentical {
		return m, fmt.Errorf("recovered run diverged: final loss %v vs %v", crashed.FinalLoss, plain.FinalLoss)
	}
	return m, nil
}
