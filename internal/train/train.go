// Package train orchestrates data-parallel training on the simulated
// cluster: every worker holds an identically initialized model replica,
// samples its own data shard, and synchronizes through the collectives of
// the distributed K-FAC workflow (Figure 2 of the paper) — gradient
// all-reduce, Kronecker-factor all-reduce, layer-wise eigendecomposition
// and preconditioning on the owning worker, and the preconditioned-gradient
// all-gather that the compressors hook into.
package train

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"compso/internal/ckpt"
	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/fault"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/nn"
	"compso/internal/obs"
	"compso/internal/opt"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// Config describes one training run.
type Config struct {
	// BuildTask constructs the proxy task; it runs once per worker and
	// must be deterministic in the given RNG so replicas start identical.
	BuildTask func(rng *rand.Rand) *modelzoo.ProxyTask
	// Workers is the simulated GPU count.
	Workers int
	// Platform is the simulated interconnect.
	Platform cluster.Config
	// Iters is the iteration budget.
	Iters int
	// Seed drives model init (shared) and per-worker data sampling.
	Seed int64
	// Schedule is the learning-rate schedule.
	Schedule opt.Schedule
	// UseKFAC selects the K-FAC path; otherwise momentum SGD.
	UseKFAC bool
	// KFAC is the optimizer configuration when UseKFAC is set.
	KFAC kfac.Config
	// StatFreq is how many iterations between Kronecker-factor
	// all-reduces (KAISA amortization).
	StatFreq int
	// NewCompressor creates each worker's gradient compressor; nil trains
	// uncompressed. Compressors implementing compress.AllReducible
	// (PowerSGD, optionally EF-wrapped) switch the first-order gradient
	// exchange from the blob all-gather to the alternating-factor ring
	// all-reduce.
	NewCompressor func(rank int) compress.Compressor
	// NewLayerCompressor, when set, gives the K-FAC preconditioned-
	// gradient exchange a compressor per layer (e.g. a LayerPlan's
	// low-rank-for-large-2D-layers assignment via LayerPlan.Compressors).
	// It requires UseKFAC, AggregationM == 1 (each all-gather frame is
	// one layer) and a nil NewCompressor; receivers decode the mixed-
	// family frames through compress.Decode.
	NewLayerCompressor func(rank, layer int) compress.Compressor
	// Controller adapts COMPSO error bounds per iteration (only meaningful
	// when NewCompressor yields *compress.COMPSO).
	Controller *compso.Controller
	// AggregationM groups this many layers per compression + all-gather
	// unit (default 1).
	AggregationM int
	// CompressFactors enables compression of the Kronecker-factor
	// exchange — the paper's second future-work item ("exploring
	// compression techniques for intermediate data in KFAC, specifically
	// the factor matrices A and G"). Each worker compresses its local
	// factor contribution, the buffers are all-gathered, and every worker
	// sums the decompressed replicas.
	CompressFactors bool
	// FactorEB is the absolute error bound for factor compression
	// (default 1e-3). Factors are running-averaged statistics, so modest
	// per-exchange error washes out.
	FactorEB float64
	// EvalEvery records validation metrics every this many iterations
	// (default: Iters/20).
	EvalEvery int
	// EvalSize is the validation batch size (default 512).
	EvalSize int
	// Overlap selects the overlap schedule of the training step (step.go):
	// gradient all-reduces launch as fused buckets of at most FusionBytes
	// and are waited only when their result is needed, and the K-FAC step
	// overlaps the owned-layer eigendecompositions with the gradient
	// collectives and pipelines the per-group preconditioned-gradient
	// exchange. Numerics are bit-identical to the sequential schedule (see
	// DESIGN.md §8) — only the simulated schedule changes. Off by default.
	Overlap bool
	// FusionBytes caps each fused gradient bucket's FP32 wire size in
	// bytes (default 25 MiB, ACP-SGD's tensor-fusion threshold). Only
	// meaningful with Overlap.
	FusionBytes int
	// Obs receives simulated-time spans and metrics for this run (see
	// package obs). Nil disables instrumentation at zero cost; enabling it
	// never changes simulated results, only observes them.
	Obs *obs.Recorder
	// Fault declares a deterministic fault scenario (see package fault):
	// straggler compute slowdowns, degraded/flaky links, in-flight
	// payload corruption with bounded-retry + lossless-fallback recovery,
	// and worker crashes (recovered through Checkpoint). Nil (the default)
	// injects nothing and recovers nothing: a failed decode is the run's
	// error. A plan that injects nothing reproduces the nil run bit for
	// bit.
	Fault *fault.Plan
	// Checkpoint enables periodic checkpointing and crash recovery (see
	// ckpt.go): with Interval > 0 a worker loss rolls every rank back to
	// the last checkpoint and resumes bit-identically to an uninterrupted
	// run.
	Checkpoint CheckpointConfig
}

// Result is the training log collected on rank 0.
type Result struct {
	Method      string
	Iterations  []int
	Losses      []float64
	Accuracies  []float64 // empty for regression tasks
	FinalLoss   float64
	FinalAcc    float64
	MeanCR      float64 // mean compression ratio over all compress calls
	CommSeconds map[string]float64
	// AlgSeconds is the mean per-worker simulated time spent in each
	// collective algorithm, keyed "op/algorithm" (e.g. "allgather/
	// hierarchical") — the step-level engine's view of where communication
	// time went, complementing CommSeconds' per-category view.
	AlgSeconds map[string]float64
	// Model is rank 0's trained replica, usable for post-hoc evaluation.
	Model *nn.Sequential
	// Metrics is the observability snapshot taken when Config.Obs was set
	// (nil otherwise): spans, counters, gauges and histograms over the
	// simulated timeline.
	Metrics *obs.Snapshot
	// FaultEvents tallies the fault-recovery events of the run (keys
	// "corrupted", "retries", "fallbacks", "retunes", and — with worker
	// crashes in the plan — "worker_crash" and "restores"); nil when
	// Config.Fault was nil. The same tallies appear as "fault/..." and
	// "ckpt/..." counters in Metrics when observability is on, and they
	// accumulate across restart attempts.
	FaultEvents map[string]int64
	// Restarts is how many crash recoveries the run went through (0 for an
	// undisturbed run).
	Restarts int
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.StatFreq <= 0 {
		cfg.StatFreq = 1
	}
	if cfg.AggregationM <= 0 {
		cfg.AggregationM = 1
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = max(1, cfg.Iters/20)
	}
	if cfg.EvalSize <= 0 {
		cfg.EvalSize = 512
	}
	if cfg.FactorEB <= 0 {
		cfg.FactorEB = 1e-3
	}
	if cfg.FusionBytes <= 0 {
		cfg.FusionBytes = 25 << 20
	}
	return cfg
}

// Run executes the training run and returns rank 0's log. Any worker error
// aborts the run — except a worker loss under an enabled checkpoint
// configuration, which rolls every rank back to the last checkpoint on a
// fresh cluster and resumes, up to MaxRestarts times.
func Run(c Config) (*Result, error) {
	cfg := c.withDefaults()
	if cfg.Workers <= 0 || cfg.Iters <= 0 || cfg.BuildTask == nil || cfg.Schedule == nil {
		return nil, fmt.Errorf("train: incomplete config %+v", cfg)
	}
	if cfg.NewLayerCompressor != nil {
		if !cfg.UseKFAC {
			return nil, fmt.Errorf("train: NewLayerCompressor requires UseKFAC")
		}
		if cfg.AggregationM != 1 {
			return nil, fmt.Errorf("train: NewLayerCompressor requires AggregationM == 1, got %d", cfg.AggregationM)
		}
		if cfg.NewCompressor != nil {
			return nil, fmt.Errorf("train: NewLayerCompressor and NewCompressor are mutually exclusive")
		}
	}
	var start *ckpt.Checkpoint
	if cfg.Checkpoint.Resume != "" {
		var err error
		start, err = ckpt.Load(cfg.Checkpoint.Resume)
		if err != nil {
			return nil, fmt.Errorf("train: resume: %w", err)
		}
	}
	coord := newCkptCoord(cfg)
	var tally map[string]int64
	if cfg.Fault != nil {
		tally = map[string]int64{}
	}
	// Simulated-time stats accumulate across restart attempts: the work
	// lost between a checkpoint and a crash still consumed compute and
	// wire time, which is exactly what the recovery judge prices.
	commAccum := map[string]float64{}
	algAccum := map[string]float64{}
	restarts := 0
	for attempt := 0; ; attempt++ {
		if start != nil {
			if err := validateResume(cfg, start); err != nil {
				return nil, err
			}
		}
		result, led, err := runAttempt(cfg, attempt, start, coord, tally)
		if led != nil {
			stats, algs := led.Merged()
			for k, v := range stats {
				commAccum[k] += v
			}
			for k, v := range algs {
				algAccum[k] += v
			}
		}
		if err == nil {
			for k, v := range commAccum {
				result.CommSeconds[k] = v / float64(cfg.Workers)
			}
			for k, v := range algAccum {
				result.AlgSeconds[k] = v / float64(cfg.Workers)
			}
			result.Restarts = restarts
			if cfg.Obs != nil {
				snap := cfg.Obs.Snapshot()
				result.Metrics = &snap
			}
			return result, nil
		}
		var lost *cluster.WorkerLost
		if !errors.As(err, &lost) || attempt >= cfg.Checkpoint.maxRestartsOrDefault() {
			return nil, err
		}
		// Crash recovery: count the loss, discard the poisoned cluster,
		// and roll back to the newest checkpoint (nil restarts from
		// scratch when the crash beat the first save).
		restarts++
		if tally != nil {
			tally["worker_crash"]++
		}
		if cfg.Obs != nil {
			cfg.Obs.Counter("fault/worker_crash").Inc()
		}
		rp, rerr := coord.restorePoint()
		if rerr != nil {
			return nil, fmt.Errorf("train: recovering from %v: %w", lost, rerr)
		}
		start = rp
		if start != nil {
			if tally != nil {
				tally["restores"]++
			}
			if cfg.Obs != nil {
				cfg.Obs.Counter("ckpt/restores").Inc()
			}
		}
	}
}

// runAttempt executes one incarnation of the run on a fresh cluster,
// optionally restored from a checkpoint. It returns the run's ledger for
// stats merging even on error; a *cluster.WorkerLost error (and only that)
// marks the attempt as recoverable.
func runAttempt(cfg Config, attempt int, start *ckpt.Checkpoint, coord *ckptCoord,
	tally map[string]int64) (*Result, *cluster.Ledger, error) {

	inj, err := fault.NewInjector(cfg.Fault)
	if err != nil {
		return nil, nil, fmt.Errorf("train: %w", err)
	}
	cl := cluster.New(cfg.Platform, cfg.Workers)
	cl.Observe(cfg.Obs)
	cl.InjectFaults(inj)
	cl.SetIncarnation(attempt)
	if cfg.Overlap {
		cl.SerializeWire(true)
	}
	result := &Result{CommSeconds: map[string]float64{}, AlgSeconds: map[string]float64{}}
	if start != nil {
		preloadResult(result, start)
		restoreCounters(cfg.Obs, start)
	} else if attempt > 0 {
		resetCounters(cfg.Obs)
	}
	var mu sync.Mutex
	// Per-rank compression-ratio accumulators: each worker adds to its own
	// slot lock-free on the hot path, and the slots merge in rank order once
	// the run finishes — so MeanCR is deterministic (the old shared-sum
	// design both contended a mutex per compress call and summed floats in
	// scheduler order). They are checkpointed per rank, so a resumed
	// attempt continues the accumulation the uninterrupted run would have.
	crs := make([]crAccum, cfg.Workers)
	errs := make([]error, cfg.Workers)

	led := cl.Run(func(w *cluster.Worker) {
		if err := runWorker(w, cfg, result, &mu, &crs[w.Rank()], start, coord, tally); err != nil {
			errs[w.Rank()] = fmt.Errorf("rank %d: %w", w.Rank(), err)
		}
	})[0].Ledger()
	// A genuine error outranks the worker-loss unwinds it may have caused
	// on the other ranks; among pure losses any one identifies the crash.
	var lostErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		var lost *cluster.WorkerLost
		if errors.As(e, &lost) {
			if lostErr == nil {
				lostErr = e
			}
		} else {
			return nil, led, e
		}
	}
	if lostErr != nil {
		return nil, led, lostErr
	}
	var crSum float64
	var crCount int
	for i := range crs {
		crSum += crs[i].sum
		crCount += crs[i].count
	}
	if crCount > 0 {
		result.MeanCR = crSum / float64(crCount)
	}
	return result, led, nil
}

// runWorker is the SPMD body. A worker-crash unwind (the victim's
// *CrashPanic, the survivors' *LostPanic) converts to a *cluster.WorkerLost
// error for the driver's recovery loop; survivors additionally charge the
// simulated peer-loss detection timeout. Any other error takes the worker
// down first, so its peers unwind as losses instead of waiting for it, and
// runAttempt reports the error itself. Any other panic is a bug and
// propagates.
func runWorker(w *cluster.Worker, cfg Config, result *Result, mu *sync.Mutex, cr *crAccum,
	start *ckpt.Checkpoint, coord *ckptCoord, tally map[string]int64) (err error) {
	defer func() {
		r := recover()
		switch p := r.(type) {
		case nil:
			if err != nil {
				w.Down("error")
			}
		case *cluster.CrashPanic:
			err = &cluster.WorkerLost{Rank: p.Rank, Step: p.Step, Point: p.Point}
		case *cluster.LostPanic:
			w.Compute(w.Faults().DetectSeconds(), "crash-detect")
			err = &cluster.WorkerLost{Rank: p.Rank, Step: p.Step, Point: p.Point}
		default:
			panic(r)
		}
	}()
	pl := newPipeline(w, cfg, cr, tally)
	startIt := 0
	if start != nil {
		if err := restoreWorker(pl, start); err != nil {
			return err
		}
		startIt = start.Step
	}
	task := pl.task
	// The validation set is a function of cfg.Seed alone (a Generator's
	// Sample depends on the rng state and n, nothing else), so rank 0 draws
	// it once and a resumed attempt draws the same one.
	var ex, ey *tensor.Matrix
	if w.Rank() == 0 {
		ex, ey = task.Data.Sample(xrand.NewSeeded(cfg.Seed*77+13), cfg.EvalSize)
	}

	for it := startIt; it < cfg.Iters; it++ {
		if err := pl.step(it); err != nil {
			return err
		}
		pl.tel.stepDone()
		pl.fc.guardStep(it)

		if w.Rank() == 0 && ((it+1)%cfg.EvalEvery == 0 || it == cfg.Iters-1) {
			out := task.Model.Forward(ex, false)
			l := task.Loss.LossInto(out, ey, nil)
			acc := -1.0
			if task.Classes > 0 {
				acc = nn.Accuracy(out, ey)
			}
			mu.Lock()
			result.Iterations = append(result.Iterations, it+1)
			result.Losses = append(result.Losses, l)
			if task.Classes > 0 {
				result.Accuracies = append(result.Accuracies, acc)
			}
			result.FinalLoss = l
			result.FinalAcc = acc
			mu.Unlock()
		}

		if coord != nil && (it+1)%cfg.Checkpoint.Interval == 0 {
			if err := saveCheckpoint(pl, coord, result, mu, it+1); err != nil {
				return err
			}
		}
	}
	if w.Rank() == 0 {
		mu.Lock()
		result.Model = task.Model
		if cfg.Fault != nil {
			result.FaultEvents = map[string]int64{
				"corrupted": 0, "retries": 0, "fallbacks": 0, "retunes": 0,
			}
			for k, v := range pl.tel.faults {
				result.FaultEvents[k] = v
			}
		}
		mu.Unlock()
	}
	return nil
}

// crAccum is one worker's lock-free compression-ratio accumulator; Run
// merges the per-rank accumulators in rank order after the workers finish.
type crAccum struct {
	sum   float64
	count int
}

func recordCR(nFloats, nBytes int, cr *crAccum) {
	if nFloats == 0 || nBytes == 0 {
		return
	}
	cr.sum += float64(4*nFloats) / float64(nBytes)
	cr.count++
}
