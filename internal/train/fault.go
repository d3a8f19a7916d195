package train

import (
	"compso/internal/cluster"
	"compso/internal/fault"
	"compso/internal/obs"
)

// This file is the training loop's graceful-degradation state over the
// fault-injection subsystem (internal/fault): the in-flight corruption
// draw for gathered blobs (the recovery ladder that answers it is
// gatherRx.attempt in gather.go), the straggler-aware collective guard
// that re-tunes the engine when the fabric's measured behaviour diverges
// from the model, and the fault telemetry.

// faultCtx carries per-worker fault state through one training run; it is
// nil when the config has no fault plan.
type faultCtx struct {
	inj     *fault.Injector
	retries int
	guard   fault.Guard
	w       *cluster.Worker
	tel     *tele

	// Guard state (rank 0 drives the shared engine's retunes).
	streak             int
	lastMeas, lastPred float64
}

// newFaultCtx builds the worker's fault context; nil when the config has
// no fault plan.
func newFaultCtx(w *cluster.Worker, cfg Config, tel *tele) *faultCtx {
	if cfg.Fault == nil {
		return nil
	}
	return &faultCtx{
		inj:     w.Faults(),
		retries: cfg.Fault.Retries(),
		guard:   cfg.Fault.Guard,
		w:       w,
		tel:     tel,
	}
}

// deliver applies the in-flight corruption model to a sender's blob for
// the given delivery attempt, counting corrupted deliveries.
func (fc *faultCtx) deliver(blob []byte, it, sender, attempt int) []byte {
	out, hit := fc.inj.CorruptBlob(blob, it, sender, attempt)
	if hit {
		fc.tel.faultEvent("corrupted", "fault/corrupted_blobs")
	}
	return out
}

// guardStep is the straggler-aware collective guard: rank 0 compares each
// step's executed-schedule seconds against the engine's fault-free
// prediction for the same collectives; when the ratio exceeds Guard.Ratio
// for Guard.Patience consecutive steps, it resets the autotuner's measured
// state so algorithm picks re-learn under the current (degraded) fabric.
func (fc *faultCtx) guardStep(it int) {
	if fc == nil || fc.guard.Ratio <= 0 || fc.w.Rank() != 0 {
		return
	}
	meas, pred := fc.w.Ledger().ScheduleSeconds()
	dm, dp := meas-fc.lastMeas, pred-fc.lastPred
	fc.lastMeas, fc.lastPred = meas, pred
	if dp <= 0 || dm <= fc.guard.Ratio*dp {
		fc.streak = 0
		return
	}
	fc.streak++
	if fc.streak < fc.guard.PatienceOrDefault() {
		return
	}
	fc.streak = 0
	fc.w.Engine().Retune()
	fc.tel.faultInstant("retunes", "fault/retunes", "collective-retune", "collective-retune", it, -1, dm/dp)
}

// Fault telemetry: logical fault events happen identically on every rank
// (the SPMD lockstep), so rank 0 counts them once — into the tally
// surfaced as Result.FaultEvents and, when observability is on, into obs
// counters and control-category instants.

// faultEvent bumps a named fault tally + counter on rank 0.
func (t *tele) faultEvent(key, counter string) {
	if t.w.Rank() != 0 {
		return
	}
	t.faults[key]++
	t.rec.Counter(counter).Inc()
}

// faultInstant is faultEvent plus a control-category instant at the
// worker's clock. peer is -1 for events without one.
func (t *tele) faultInstant(key, counter, name, label string, it, peer int, value float64) {
	t.faultEvent(key, counter)
	if t.rec == nil || t.w.Rank() != 0 {
		return
	}
	a := obs.NoAttrs
	a.Step = it
	a.Peer = peer
	a.Value = value
	a.Label = label
	t.rec.Instant(t.step, t.w.Rank(), obs.CatControl, name, t.w.Time(), a)
}
