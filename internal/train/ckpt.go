package train

import (
	"fmt"
	"slices"
	"sync"

	"compso/internal/ckpt"
	"compso/internal/kfac"
	"compso/internal/obs"
)

// Crash-fault tolerance: periodic checkpoints of the complete training
// state (package ckpt) plus automatic rollback-and-resume when a worker is
// lost. The contract is bit-identity — a run that crashes at step k and
// resumes from checkpoint c produces exactly the final losses, accuracies,
// model parameters, mean compression ratio and wire-byte counters of an
// uninterrupted run with the same checkpoint cadence. Three mechanisms
// carry it:
//
//   - Complete state capture. A checkpoint holds the model, the optimizer
//     (SGD momentum or K-FAC covariances plus the owner-local
//     decomposition caches), every stream compressor's Stateful snapshot,
//     each rank's data-RNG position, the per-rank compression-ratio
//     accumulators, rank 0's evaluation log, and the cumulative wire
//     counters. Restoring all of it makes the resumed step's float
//     expressions identical to the uninterrupted run's.
//   - Deterministic collectives. The engine reduces in fixed rank order
//     regardless of which algorithm the autotuner picks, so the autotuner
//     re-warming from scratch after a restore cannot change any sum.
//   - Counter rewind. Wire and step counters are restored to their
//     checkpointed values (obs.Counter.Set's only sanctioned caller), so
//     the lost work between the checkpoint and the crash is not
//     double-counted.
//
// Lost work still costs simulated time: CommSeconds/AlgSeconds accumulate
// across every attempt, which is exactly what the checkpoint-interval
// recovery judge in internal/experiments prices.

// CheckpointConfig enables periodic checkpointing and crash recovery.
type CheckpointConfig struct {
	// Interval saves a checkpoint every Interval completed steps; 0
	// disables checkpointing (a crash then aborts the run after
	// MaxRestarts scratch restarts).
	Interval int
	// Dir is the checkpoint directory. Empty keeps checkpoints in memory
	// (still round-tripped through the wire encoding, so restore always
	// exercises the codec).
	Dir string
	// Resume is the path of a checkpoint file to resume from ("" starts
	// fresh). The checkpoint's config fingerprint must match.
	Resume string
	// MaxRestarts bounds how many worker-loss recoveries Run attempts
	// before giving up (default 3).
	MaxRestarts int
}

// maxRestartsOrDefault returns the recovery budget.
func (c CheckpointConfig) maxRestartsOrDefault() int {
	if c.MaxRestarts > 0 {
		return c.MaxRestarts
	}
	return 3
}

// ckptCoord coordinates one run's checkpointing across workers and
// restart attempts: per-rank capture slots (written by each rank, read by
// rank 0 after a barrier) and the last persisted checkpoint (read by Run
// between attempts).
type ckptCoord struct {
	dir    string
	ranks  []ckpt.RankState
	caches [][]kfac.LayerCache

	mu   sync.Mutex
	last *ckpt.Checkpoint
}

func newCkptCoord(cfg Config) *ckptCoord {
	if cfg.Checkpoint.Interval <= 0 {
		return nil
	}
	return &ckptCoord{
		dir:    cfg.Checkpoint.Dir,
		ranks:  make([]ckpt.RankState, cfg.Workers),
		caches: make([][]kfac.LayerCache, cfg.Workers),
	}
}

// persist stores the assembled checkpoint: to disk when a directory is
// configured, and always decoded back from its own encoding so the
// in-memory restore point is exactly what a file restore would yield.
func (co *ckptCoord) persist(ck *ckpt.Checkpoint, rec *obs.Recorder) error {
	blob := ck.Encode()
	if co.dir != "" {
		if _, _, err := ckpt.Save(co.dir, ck); err != nil {
			return fmt.Errorf("train: checkpoint save: %w", err)
		}
	}
	dec, err := ckpt.Decode(blob)
	if err != nil {
		return fmt.Errorf("train: checkpoint round-trip: %w", err)
	}
	co.mu.Lock()
	co.last = dec
	co.mu.Unlock()
	if rec != nil {
		rec.Counter("ckpt/saves").Inc()
		rec.Counter("ckpt/bytes").Add(float64(len(blob)))
	}
	return nil
}

// restorePoint returns the checkpoint a recovery should roll back to: the
// newest complete file when a directory is configured (exercising the
// torn-write-tolerant LatestPath), the in-memory copy otherwise, nil when
// nothing has been saved yet (the recovery then restarts from scratch).
func (co *ckptCoord) restorePoint() (*ckpt.Checkpoint, error) {
	if co == nil {
		return nil, nil
	}
	if co.dir != "" {
		path, err := ckpt.LatestPath(co.dir)
		if err != nil || path == "" {
			return nil, err
		}
		return ckpt.Load(path)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.last, nil
}

// methodFingerprint identifies the parts of the configuration a checkpoint
// is only valid for. A resume under a different fingerprint would replay
// different float expressions, so it is rejected instead.
func methodFingerprint(cfg Config) string {
	m := "sgd"
	if cfg.UseKFAC {
		m = "kfac"
	}
	comp := "none"
	if cfg.NewCompressor != nil {
		comp = "stream"
	}
	if cfg.NewLayerCompressor != nil {
		comp = "per-layer"
	}
	return fmt.Sprintf("%s/%s/statfreq=%d/aggm=%d/overlap=%v/factors=%v",
		m, comp, cfg.StatFreq, cfg.AggregationM, cfg.Overlap, cfg.CompressFactors)
}

// controllerFingerprint identifies the adaptive-compression controller.
// The Algorithm-1 controller is a pure function of its configuration and
// the step number, so identity — not live state — is all a resume needs.
func controllerFingerprint(cfg Config) string {
	c := cfg.Controller
	if c == nil {
		return ""
	}
	return fmt.Sprintf("ctrl/loose=%g,%g/tight=%g/z=%d/alpha=%g/T=%d",
		c.LooseEBF, c.LooseEBQ, c.TightEBQ, c.Stages, c.Alpha, c.TotalIters)
}

// validateResume rejects a checkpoint that does not belong to this
// configuration.
func validateResume(cfg Config, c *ckpt.Checkpoint) error {
	if c.Workers != cfg.Workers || c.Seed != cfg.Seed || c.UseKFAC != cfg.UseKFAC {
		return fmt.Errorf("train: checkpoint is for workers=%d seed=%d kfac=%v, config wants workers=%d seed=%d kfac=%v",
			c.Workers, c.Seed, c.UseKFAC, cfg.Workers, cfg.Seed, cfg.UseKFAC)
	}
	if got, want := methodFingerprint(cfg), c.Method; got != want {
		return fmt.Errorf("train: checkpoint method %q, config is %q", want, got)
	}
	if got, want := controllerFingerprint(cfg), c.Controller; got != want {
		return fmt.Errorf("train: checkpoint controller %q, config is %q", want, got)
	}
	if c.Step > cfg.Iters {
		return fmt.Errorf("train: checkpoint step %d beyond the %d-iteration budget", c.Step, cfg.Iters)
	}
	if len(c.Ranks) != cfg.Workers {
		return fmt.Errorf("train: checkpoint has %d rank states for %d workers", len(c.Ranks), cfg.Workers)
	}
	return nil
}

// preloadResult replaces the result log with the checkpoint's, so the
// resumed run's evaluation history is exactly the uninterrupted run's.
func preloadResult(result *Result, c *ckpt.Checkpoint) {
	result.Iterations = append([]int(nil), c.Log.Iterations...)
	result.Losses = append([]float64(nil), c.Log.Losses...)
	result.Accuracies = append([]float64(nil), c.Log.Accuracies...)
	result.FinalLoss = c.Log.FinalLoss
	result.FinalAcc = c.Log.FinalAcc
}

// restoreCounters rewinds the cumulative counters to their checkpointed
// values: every checkpointed counter is Set back, and wire counters that
// only came into existence during the lost work are zeroed, so resumed
// totals match an uninterrupted run exactly.
func restoreCounters(rec *obs.Recorder, c *ckpt.Checkpoint) {
	if rec == nil {
		return
	}
	for _, name := range rec.CounterNames("wire/") {
		if _, ok := c.Counters[name]; !ok {
			rec.Counter(name).Set(0)
		}
	}
	for name, v := range c.Counters {
		rec.Counter(name).Set(v)
	}
}

// resetCounters zeroes the resumable counters for a from-scratch restart —
// a crash that beat the first checkpoint. The replayed steps re-count their
// wire traffic from zero, so the totals stay exactly those of an
// uninterrupted run.
func resetCounters(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	for _, name := range rec.CounterNames("wire/") {
		rec.Counter(name).Set(0)
	}
	rec.Counter("train/steps").Set(0)
}

// captureCounters snapshots the counters a resume must rewind: the wire
// byte totals and the step counter. Fault and checkpoint counters stay
// cumulative across the whole wall-clock run — they track real events,
// including lost work.
func captureCounters(rec *obs.Recorder) map[string]float64 {
	m := map[string]float64{}
	if rec == nil {
		return m
	}
	for _, name := range rec.CounterNames("wire/") {
		m[name] = rec.Counter(name).Value()
	}
	m["train/steps"] = rec.Counter("train/steps").Value()
	return m
}

// saveCheckpoint is the SPMD save protocol, entered by every rank after
// completing `step` steps. Each rank deposits its private stream state
// (data RNG, compressor streams, CR accumulator, owned K-FAC caches) into
// its coordinator slot; one barrier orders every deposit before rank 0
// assembles, encodes and persists the checkpoint. The barrier moves no
// wire bytes, so the wire counters stay comparable to a checkpoint-free
// run.
func saveCheckpoint(p *pipeline, coord *ckptCoord, result *Result, mu *sync.Mutex, step int) error {
	w, cr, comp, layerComps, optimizer := p.w, p.cr, p.comp, p.layerComps, p.k
	rs := ckpt.RankState{CRSum: cr.sum, CRCount: cr.count}
	b, err := p.dataSrc.MarshalBinary()
	if err != nil {
		return fmt.Errorf("train: data RNG marshal: %w", err)
	}
	rs.DataRNG = b
	if comp != nil {
		rs.Comp, err = ckpt.CaptureCompressor(comp)
		if err != nil {
			return err
		}
	}
	if layerComps != nil {
		for _, li := range p.owned[w.Rank()] { // ascending
			cs, err := ckpt.CaptureCompressor(layerComps[li])
			if err != nil {
				return err
			}
			if cs != nil {
				rs.LayerComps = append(rs.LayerComps, ckpt.LayerComp{Layer: li, State: cs})
			}
		}
	}
	var caches []kfac.LayerCache
	if optimizer != nil {
		caches, err = optimizer.CaptureCaches(p.owned[w.Rank()])
		if err != nil {
			return err
		}
	}
	coord.ranks[w.Rank()] = rs
	coord.caches[w.Rank()] = caches
	// The first barrier orders every rank's deposit before rank 0's reads;
	// the second holds the other ranks until rank 0 has persisted the
	// restore point. Without it a rank could race into the next step's
	// first collective and crash there before the save landed, making the
	// rollback target (this checkpoint vs the previous one) depend on
	// goroutine scheduling.
	w.Barrier()
	err = nil
	if w.Rank() == 0 {
		err = persistRankZero(p, coord, result, mu, step)
	}
	w.Barrier()
	return err
}

// persistRankZero assembles the cluster-wide checkpoint from the deposited
// per-rank state and hands it to the coordinator. Only rank 0 calls it,
// between saveCheckpoint's two barriers.
func persistRankZero(p *pipeline, coord *ckptCoord, result *Result, mu *sync.Mutex, step int) error {
	w, cfg, task, sgd, optimizer := p.w, p.cfg, p.task, p.sgd, p.k
	ck := &ckpt.Checkpoint{
		Step: step, Seed: cfg.Seed, Workers: cfg.Workers, UseKFAC: cfg.UseKFAC,
		Method:     methodFingerprint(cfg),
		Controller: controllerFingerprint(cfg),
	}
	params := task.Model.Params()
	ck.Params = make([]ckpt.Param, len(params))
	for i, p := range params {
		ck.Params[i] = ckpt.Param{
			Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols,
			Data: append([]float64(nil), p.W.Data...),
		}
	}
	if sgd != nil {
		ck.SGDVel = sgd.CaptureVelocity(params)
	}
	if optimizer != nil {
		ck.KFAC = optimizer.CaptureState()
		for _, cs := range coord.caches {
			ck.KFACCaches = append(ck.KFACCaches, cs...)
		}
	}
	ck.Ranks = append([]ckpt.RankState(nil), coord.ranks...)
	mu.Lock()
	ck.Log = ckpt.Log{
		Iterations: append([]int(nil), result.Iterations...),
		Losses:     append([]float64(nil), result.Losses...),
		Accuracies: append([]float64(nil), result.Accuracies...),
		FinalLoss:  result.FinalLoss,
		FinalAcc:   result.FinalAcc,
	}
	mu.Unlock()
	ck.Counters = captureCounters(w.Recorder())
	return coord.persist(ck, w.Recorder())
}

// restoreWorker installs a checkpoint into this rank's freshly built
// replica: model parameters, optimizer state (with the rank's owned
// decomposition caches), compressor streams, data-RNG position and the
// CR accumulator. After it returns, the worker's state is bit-identical
// to what it was when the checkpoint was taken.
func restoreWorker(p *pipeline, c *ckpt.Checkpoint) error {
	w, task, sgd, optimizer, comp, layerComps, cr := p.w, p.task, p.sgd, p.k, p.comp, p.layerComps, p.cr
	params := task.Model.Params()
	if len(c.Params) != len(params) {
		return fmt.Errorf("train: checkpoint has %d parameters, model has %d", len(c.Params), len(params))
	}
	for i, p := range params {
		cp := c.Params[i]
		if cp.Name != p.Name || cp.Rows != p.W.Rows || cp.Cols != p.W.Cols {
			return fmt.Errorf("train: checkpoint parameter %d is %s[%dx%d], model has %s[%dx%d]",
				i, cp.Name, cp.Rows, cp.Cols, p.Name, p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, cp.Data)
	}
	if sgd != nil {
		if err := sgd.RestoreVelocity(params, c.SGDVel); err != nil {
			return err
		}
	}
	if optimizer != nil {
		if c.KFAC == nil {
			return fmt.Errorf("train: checkpoint carries no K-FAC state")
		}
		if err := optimizer.RestoreState(c.KFAC); err != nil {
			return err
		}
		var mine []kfac.LayerCache
		for _, lc := range c.KFACCaches {
			if slices.Contains(p.owned[w.Rank()], lc.Layer) {
				mine = append(mine, lc)
			}
		}
		if err := optimizer.RestoreCaches(mine); err != nil {
			return err
		}
	}
	rs := c.Ranks[w.Rank()]
	if comp != nil {
		if err := ckpt.RestoreCompressor(comp, rs.Comp); err != nil {
			return err
		}
	} else if rs.Comp != nil {
		return fmt.Errorf("train: checkpoint carries a compressor stream but the config has none")
	}
	for _, lc := range rs.LayerComps {
		live, ok := layerComps[lc.Layer]
		if !ok {
			return fmt.Errorf("train: checkpoint carries a stream for layer %d this rank does not own", lc.Layer)
		}
		if err := ckpt.RestoreCompressor(live, lc.State); err != nil {
			return err
		}
	}
	if rs.DataRNG == nil {
		return fmt.Errorf("train: checkpoint rank %d has no data RNG state", w.Rank())
	}
	if err := p.dataSrc.UnmarshalBinary(rs.DataRNG); err != nil {
		return fmt.Errorf("train: data RNG restore: %w", err)
	}
	cr.sum, cr.count = rs.CRSum, rs.CRCount
	return nil
}
