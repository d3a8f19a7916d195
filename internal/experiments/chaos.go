package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"

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

// ChaosRow is one fault scenario's outcome in the chaos matrix.
type ChaosRow struct {
	Scenario  string
	CommSec   float64 // mean per-worker seconds across all collective algorithms
	FinalLoss float64
	MeanCR    float64
	// Fault-recovery tallies (zero on the fault-free baseline).
	Corrupted, Retries, Fallbacks, Retunes int64
	// Worker-crash tallies: crashes suffered and checkpoint restores that
	// recovered them (scratch restarts recover without a restore).
	WorkerCrashes, Restores int64
}

// chaosScenario names one fault plan of the matrix. A nil plan is the
// fault-free baseline.
type chaosScenario struct {
	name string
	plan *fault.Plan
}

// chaosScenarios builds the matrix: a clean baseline, then each fault class
// in isolation, then everything at once. Plans share one seed so runs are
// reproducible end to end.
func chaosScenarios() []chaosScenario {
	const seed = 2025
	straggler := []fault.Straggler{{Rank: 3, Factor: 2.5, FromStep: 2}}
	links := []fault.LinkFault{{
		SrcNode: -1, DstNode: -1, Link: "inter",
		AlphaFactor: 3, BetaFactor: 2, Jitter: 0.3,
	}}
	corrupt := fault.Corruption{Rate: 0.25, BitFlips: 4}
	guard := fault.Guard{Ratio: 1.25, Patience: 2}
	return []chaosScenario{
		{name: "baseline", plan: nil},
		{name: "straggler", plan: &fault.Plan{Seed: seed, Stragglers: straggler, Guard: guard}},
		{name: "flaky-link", plan: &fault.Plan{Seed: seed, Links: links, Guard: guard}},
		{name: "corruption", plan: &fault.Plan{Seed: seed, Corruption: corrupt, MaxRetries: 1}},
		// Crash steps sit early so the scenarios fire at every iteration
		// budget the matrix runs under (the CI default included), and one
		// past the checkpoint cadence so recovery replays a full step's
		// collectives — lost work must show up in the accumulated comm time.
		{name: "crash-single", plan: &fault.Plan{Seed: seed, Crashes: []fault.WorkerCrash{
			{Rank: 5, Point: fault.CrashMidStep, Step: 3},
		}}},
		{name: "crash-repeat", plan: &fault.Plan{Seed: seed, Crashes: []fault.WorkerCrash{
			{Rank: 2, Point: fault.CrashMidCollective, Step: 2, Every: 1, Times: 2, CollSite: 1},
		}}},
		{name: "combined", plan: &fault.Plan{
			Seed: seed, Stragglers: straggler, Links: links,
			Corruption: corrupt, MaxRetries: 1, Guard: guard,
		}},
	}
}

// kfacJob is the instrumented training job of every chaos scenario and of
// the observed capture: 8 simulated GPUs on Platform 1, distributed K-FAC
// with the COMPSO compressor.
func kfacJob(iters int, rec *obs.Recorder, plan *fault.Plan) train.Config {
	const seed = int64(42)
	schedule := &opt.StepLR{BaseLR: 0.03, Drops: []int{iters * 2 / 3}, Gamma: 0.1}
	return train.Config{
		BuildTask: func(rng *rand.Rand) *modelzoo.ProxyTask {
			return modelzoo.ProxyResNet(rng, seed)
		},
		Workers:  8,
		Platform: cluster.Platform1(),
		Iters:    iters,
		Seed:     seed,
		Schedule: schedule,
		UseKFAC:  true,
		KFAC:     kfac.DefaultConfig(),
		NewCompressor: func(rank int) compress.Compressor {
			return compso.NewCompressor(nil, rank, seed)
		},
		AggregationM: 4,
		Obs:          rec,
		Fault:        plan,
		Checkpoint:   ckptFor(plan),
	}
}

// ckptFor enables checkpointing for scenarios whose plan can lose a
// worker; the other scenarios keep the checkpoint-free fast path. The
// cadence is fixed at 2 so the scenarios' crash steps land one past a
// save at every budget the matrix runs under: recovery then replays a
// full step of collectives and the lost work is measurable.
func ckptFor(plan *fault.Plan) train.CheckpointConfig {
	if !plan.HasCrashes() {
		return train.CheckpointConfig{}
	}
	return train.CheckpointConfig{Interval: 2}
}

// ChaosMatrix runs the fault-injection matrix: the same instrumented 8-GPU
// K-FAC + COMPSO job under a clean fabric, a persistent straggler, degraded
// inter-node links, payload corruption, and all of them combined. Every
// scenario self-checks that its collective span sums still reconcile with
// the run's AlgSeconds attribution within 1% — fault injection perturbs the
// timeline, never the accounting. The combined scenario's Chrome trace and
// metrics dump go to tracePath and metricsPath (see writeArtifacts).
//
// iters <= 0 selects a small default budget suitable for CI.
func ChaosMatrix(iters int, tracePath, metricsPath string) ([]ChaosRow, *Table, error) {
	if iters <= 0 {
		iters = 12
	}
	var rows []ChaosRow
	for _, sc := range chaosScenarios() {
		rec := obs.NewRecorder()
		cfg := kfacJob(iters, rec, sc.plan)
		res, err := train.Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("chaos %s: %w", sc.name, err)
		}
		snap := res.Metrics
		if snap == nil {
			return nil, nil, fmt.Errorf("chaos %s: no metrics snapshot", sc.name)
		}
		perWorker := map[string]float64{}
		for k, v := range snap.AlgSeconds() {
			perWorker[k] = v / float64(cfg.Workers)
		}
		if err := obs.ReconcileAlgSeconds(perWorker, res.AlgSeconds, 0.01); err != nil {
			return nil, nil, fmt.Errorf("chaos %s: span/AlgSeconds reconciliation failed: %w", sc.name, err)
		}
		row := ChaosRow{
			Scenario:  sc.name,
			CommSec:   sumValues(res.AlgSeconds),
			FinalLoss: res.FinalLoss,
			MeanCR:    res.MeanCR,
		}
		if ev := res.FaultEvents; ev != nil {
			row.Corrupted = ev["corrupted"]
			row.Retries = ev["retries"]
			row.Fallbacks = ev["fallbacks"]
			row.Retunes = ev["retunes"]
			row.WorkerCrashes = ev["worker_crash"]
			row.Restores = ev["restores"]
		}
		rows = append(rows, row)

		if sc.name == "combined" {
			if err := writeArtifacts(snap, tracePath, metricsPath); err != nil {
				return nil, nil, fmt.Errorf("chaos %s: %w", sc.name, err)
			}
		}
	}

	tb := &Table{
		Title:   "Chaos matrix: fault injection vs recovery (8 GPUs, K-FAC + COMPSO; span sums reconcile with AlgSeconds within 1%)",
		Headers: []string{"scenario", "comm s", "final loss", "mean CR", "corrupted", "retries", "fallbacks", "retunes", "crashes", "restores"},
	}
	for _, r := range rows {
		tb.Rows = append(tb.Rows, []string{
			r.Scenario,
			fmt.Sprintf("%.4f", r.CommSec),
			fmt.Sprintf("%.4f", r.FinalLoss),
			fmt.Sprintf("%.2f", r.MeanCR),
			fmt.Sprintf("%d", r.Corrupted),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Fallbacks),
			fmt.Sprintf("%d", r.Retunes),
			fmt.Sprintf("%d", r.WorkerCrashes),
			fmt.Sprintf("%d", r.Restores),
		})
	}
	return rows, tb, nil
}

func sumValues(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += m[k]
	}
	return s
}
