package train

import (
	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/gpusim"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/obs"
)

// tele is the per-worker instrumentation state: the observability recorder
// (nil when tracing is off), the roofline device model used to charge
// compression-kernel time, the flop-rate model for the K-FAC numerics, and
// the currently open step/phase spans.
//
// Two invariants hold throughout:
//
//   - Simulated-time charging (Worker.Compute calls) is unconditional, so
//     enabling the recorder never changes simulated results — the trace is
//     a pure observation of the same deterministic timeline.
//   - With a nil recorder every method reduces to the Compute charge plus a
//     nil check: no closures, no interface boxing, no allocations. The
//     zero-allocation contract is enforced by a benchmark-derived test in
//     package obs.
type tele struct {
	w    *cluster.Worker
	rec  *obs.Recorder
	dev  gpusim.Device
	pipe gpusim.Pipeline
	cm   modelzoo.ComputeModel
	step obs.SpanID
	// faults tallies logical fault events on rank 0 (the run's shared
	// tally; nil without a fault plan), surfaced as Result.FaultEvents.
	faults map[string]int64
}

func newTele(w *cluster.Worker) *tele {
	return &tele{
		w:    w,
		rec:  w.Recorder(),
		dev:  gpusim.A100(),
		pipe: gpusim.COMPSOFused(),
		cm:   modelzoo.A100Compute(),
	}
}

// beginStep opens the iteration's step span and parents subsequent
// collective spans under it.
func (t *tele) beginStep(it int) {
	if t.rec == nil {
		return
	}
	t.step = t.rec.StartSpan(0, t.w.Rank(), obs.CatStep, "step", t.w.Time())
	t.w.SetSpanContext(t.step)
}

// endStep closes the iteration's step span at the worker's current clock.
// The step runner defers it, so error returns and worker-loss unwinds
// close the span too.
func (t *tele) endStep(it int) {
	if t.rec == nil {
		return
	}
	a := obs.NoAttrs
	a.Step = it
	t.rec.EndSpanAttrs(t.step, t.w.Time(), a)
	t.w.SetSpanContext(0)
	t.step = 0
}

// stepDone counts a completed step on rank 0 and publishes the overlap
// schedule's headline efficiency number: the fraction of this worker's
// collective time hidden behind compute so far. exposed is the comm time
// actually charged to the clock (waits that outran the compute), total
// each collective's full launch-to-end latency; sequential runs sit at
// exactly 0, and the gauge rises as launches are pipelined ahead of their
// waits.
func (t *tele) stepDone() {
	if t.rec == nil || t.w.Rank() != 0 {
		return
	}
	t.rec.Counter("train/steps").Inc()
	if exposed, total := t.w.OverlapStats(); total > 0 {
		t.rec.Gauge("overlap/hidden_comm_fraction").Set(1 - exposed/total)
	}
}

// beginPhase opens a named phase span under the current step and makes it
// the parent for collective spans recorded inside it. It returns 0 (a
// no-op for endPhase) when tracing is off.
func (t *tele) beginPhase(name string) obs.SpanID {
	if t.rec == nil {
		return 0
	}
	id := t.rec.StartSpan(t.step, t.w.Rank(), obs.CatPhase, name, t.w.Time())
	t.w.SetSpanContext(id)
	return id
}

// endPhase closes a phase span and restores the step span as the
// collective parent.
func (t *tele) endPhase(id obs.SpanID) {
	if t.rec == nil {
		return
	}
	t.rec.EndSpan(id, t.w.Time())
	t.w.SetSpanContext(t.step)
}

// compress charges the modeled time of compressing n float32 values on
// the given kernel pipeline (t.pipe, the fused COMPSO kernel, for every
// family but the low-rank one, which charges its GEMM-shaped pipeline) and
// records a compress span plus ratio/wire-size metrics.
func (t *tele) compress(pipe gpusim.Pipeline, n, blobBytes int, label string) {
	start := t.w.Time()
	t.w.Compute(t.dev.Time(pipe, n), "compress")
	if t.rec == nil {
		return
	}
	a := obs.NoAttrs
	a.Label = label
	a.BytesIn = int64(4 * n)
	a.BytesOut = int64(blobBytes)
	if n > 0 && blobBytes > 0 {
		a.Value = float64(4*n) / float64(blobBytes)
	}
	t.rec.Span(t.w.SpanContext(), t.w.Rank(), obs.CatCompress, "compress", start, t.w.Time(), a)
	if t.w.Rank() == 0 && a.Value > 0 {
		t.rec.Histogram("compress/ratio").Observe(a.Value)
		t.rec.Histogram("compress/blob_bytes").Observe(float64(blobBytes))
	}
}

// decompress charges the modeled decode time for recovering n float32
// values from a blobBytes-sized buffer and records a decompress span.
func (t *tele) decompress(pipe gpusim.Pipeline, n, blobBytes int, label string) {
	start := t.w.Time()
	t.w.Compute(t.dev.DecompressTime(pipe, n), "decompress")
	if t.rec == nil {
		return
	}
	a := obs.NoAttrs
	a.Label = label
	a.BytesIn = int64(blobBytes)
	a.BytesOut = int64(4 * n)
	t.rec.Span(t.w.SpanContext(), t.w.Rank(), obs.CatCompress, "decompress", start, t.w.Time(), a)
}

// eigen charges the modeled eigendecomposition time for layer li (9·(a³+g³)
// flops at the low-efficiency eigensolver rate) and records a span.
func (t *tele) eigen(k *kfac.KFAC, li int) {
	da, dg := k.FactorDims(li)
	a, g := float64(da), float64(dg)
	start := t.w.Time()
	t.w.Compute(9*(a*a*a+g*g*g)/t.cm.EigFlops, "kfac-eigendecomp")
	if t.rec == nil {
		return
	}
	at := obs.NoAttrs
	at.Layer = li
	t.rec.Span(t.w.SpanContext(), t.w.Rank(), obs.CatPrecondition, "eigendecomp", start, t.w.Time(), at)
}

// precondition charges the modeled two-sided eigenbasis GEMM time for
// layer li (4·(a²g+ag²) flops at the GEMM rate) and records a span.
func (t *tele) precondition(k *kfac.KFAC, li int) {
	da, dg := k.FactorDims(li)
	a, g := float64(da), float64(dg)
	start := t.w.Time()
	t.w.Compute(4*(a*a*g+a*g*g)/t.cm.Flops, "kfac-precondition")
	if t.rec == nil {
		return
	}
	at := obs.NoAttrs
	at.Layer = li
	t.rec.Span(t.w.SpanContext(), t.w.Rank(), obs.CatPrecondition, "precondition", start, t.w.Time(), at)
}

// filterStats observes the compressor's last filter hit rate (the dropped
// fraction) on rank 0.
func (t *tele) filterStats(comp compress.Compressor) {
	if t.rec == nil || t.w.Rank() != 0 {
		return
	}
	cc, ok := comp.(*compress.COMPSO)
	if !ok || cc.LastFilterTotal == 0 {
		return
	}
	t.rec.Histogram("compress/filter_hit_rate").
		Observe(1 - float64(cc.LastFilterKept)/float64(cc.LastFilterTotal))
}

// controller records the adaptive controller's error-bound trajectory and
// emits an instant event (plus a counter) whenever the strategy for this
// iteration differs from the previous one. Rank 0 only.
func (t *tele) controller(ctrl *compso.Controller, it int) {
	if t.rec == nil || t.w.Rank() != 0 {
		return
	}
	s := ctrl.StrategyAt(it)
	t.rec.Gauge("compso/eb_quant").Set(s.EBQuant)
	t.rec.Gauge("compso/eb_filter").Set(s.EBFilter)
	t.rec.Histogram("compso/eb_quant_trajectory").Observe(s.EBQuant)
	if it > 0 && ctrl.StrategyAt(it-1) != s {
		a := obs.NoAttrs
		a.Step = it
		a.Value = s.EBQuant
		a.Label = s.String()
		t.rec.Instant(t.step, t.w.Rank(), obs.CatControl, "strategy-switch", t.w.Time(), a)
		t.rec.Counter("compso/strategy_switches").Inc()
	}
}
