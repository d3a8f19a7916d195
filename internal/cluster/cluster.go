package cluster

import (
	"fmt"
	"slices"
	"sync"

	"compso/internal/collective"
	"compso/internal/fault"
	"compso/internal/obs"
	"compso/internal/pool"
)

// Cluster executes an SPMD function on P simulated workers (goroutines).
// Collectives exchange real data and advance every participant's simulated
// clock through the step-level collective engine (internal/collective),
// which schedules each exchange over simulated point-to-point links.
// Workers must issue collectives in identical order (the SPMD contract).
type Cluster struct {
	p      int
	rv     *rendezvous
	engine *collective.Engine
	rec    *obs.Recorder
	faults *fault.Injector

	// serializeWire queues engine-scheduled collectives on the run
	// ledger's wire cursor, so collectives launched back-to-back without
	// blocking (the async handles) occupy the fabric one after another
	// instead of each being scheduled as if it had the links to itself.
	serializeWire bool

	// incarnation is the restart attempt this cluster serves (crash
	// recovery).
	incarnation int

	// sum is the all-reduce sum's storage, written by each all-reduce's
	// combining rank and copied out by every rank at launch
	// (AllReduceAsync).
	sum []float64
}

// New creates a cluster of p workers on the given platform. It panics on an
// invalid configuration, which is a programming error in experiment setup.
func New(cfg Config, p int) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if p <= 0 {
		panic(fmt.Sprintf("cluster: %d workers", p))
	}
	return &Cluster{
		p: p, rv: newRendezvous(p),
		engine: EngineFor(cfg, p),
	}
}

// Size returns the number of workers.
func (c *Cluster) Size() int { return c.p }

// Engine returns the collective engine dispatching this cluster's
// collectives (for prediction queries and tuner inspection).
func (c *Cluster) Engine() *collective.Engine { return c.engine }

// InjectFaults installs a fault injector: straggler compute multipliers
// apply to Worker.Compute charges, and degraded-link perturbations apply
// to every stepped collective schedule (which is what makes the engine's
// measurement-refined autotuner re-tune under the degraded topology).
// Payload corruption is the training loop's concern — the cluster moves
// bytes verbatim. A nil injector (the default) keeps the fault-free fast
// path. Call before Run.
func (c *Cluster) InjectFaults(inj *fault.Injector) {
	c.faults = inj
	if inj != nil {
		c.engine.SetPerturber(inj)
	} else {
		c.engine.SetPerturber(nil)
	}
}

// Faults returns the installed fault injector (nil when fault-free).
func (c *Cluster) Faults() *fault.Injector { return c.faults }

// SerializeWire enables (or disables) wire serialization: each
// engine-scheduled collective starts no earlier than the run ledger's wire
// cursor, the latest end of those launched before it. Per-rank early
// finishers of a blocking collective can arrive under the cursor, so the
// mode is off by default; the overlap scheduler and programs that launch
// turn it on. Call before Run.
func (c *Cluster) SerializeWire(on bool) { c.serializeWire = on }

// Observe attaches an observability recorder: every collective records a
// per-rank span covering exactly the simulated time the rank was blocked
// (so per-algorithm span sums reconcile with AlgSeconds), plus wire-byte
// counters and autotuner-pick counters. With the recorder's transfer-span
// option, each scheduled point-to-point transfer is recorded too. A nil
// recorder (the default) keeps every hot path allocation-free. Call before
// Run.
func (c *Cluster) Observe(rec *obs.Recorder) { c.rec = rec }

// Recorder returns the attached recorder (nil when observability is off).
func (c *Cluster) Recorder() *obs.Recorder { return c.rec }

// Run executes fn on every worker concurrently and blocks until all
// return. Each Run charges a fresh Ledger, every clock at zero, and
// returns the workers in rank order; they keep reading that run's ledger
// (simulated time, stats) after Run returns. The engine keeps per-transfer
// events only for a recorder that asks for transfer spans.
func (c *Cluster) Run(fn func(w *Worker)) []*Worker {
	led := NewLedger(c.p, false)
	c.engine.SetEventRetention(c.rec.TransferSpans())
	workers := make([]*Worker, c.p)
	var wg sync.WaitGroup
	for rank := range workers {
		workers[rank] = &Worker{cluster: c, led: led, rank: rank}
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			fn(w)
		}(workers[rank])
	}
	wg.Wait()
	return workers
}

// Worker is one simulated GPU: a rank of its Run's ledger. Methods must be
// called only from the goroutine Run assigned to it.
type Worker struct {
	cluster *Cluster
	led     *Ledger
	rank    int
	// spanCtx is the current parent span for spans this worker records
	// (set by the training loop around steps and phases).
	spanCtx obs.SpanID
	// step is the training loop's current iteration (SetStep), which
	// windows transient fault injection.
	step int
	// collSeq counts the step's collective entries (reset by SetStep) —
	// the site index mid-collective crash injection keys on.
	collSeq int
}

// Rank returns the worker's 0-based rank.
func (w *Worker) Rank() int { return w.rank }

// Recorder returns the cluster's observability recorder; nil means
// observability is disabled (the default).
func (w *Worker) Recorder() *obs.Recorder { return w.cluster.rec }

// SetSpanContext sets the parent span under which this worker's collective
// spans nest (the training loop points it at the current step or phase
// span). A zero ID detaches.
func (w *Worker) SetSpanContext(id obs.SpanID) { w.spanCtx = id }

// SpanContext returns the current parent span.
func (w *Worker) SpanContext() obs.SpanID { return w.spanCtx }

// Size returns the world size.
func (w *Worker) Size() int { return w.cluster.p }

// Engine returns the cluster's collective engine (for prediction queries
// and the straggler guard's Retune).
func (w *Worker) Engine() *collective.Engine { return w.cluster.engine }

// Faults returns the cluster's fault injector (nil when fault-free).
func (w *Worker) Faults() *fault.Injector { return w.cluster.faults }

// SetStep tells the cluster which training iteration the worker is in, so
// transient faults (straggler windows, corruption windows) can key on it.
func (w *Worker) SetStep(it int) { w.step = it; w.collSeq = 0 }

// Step returns the last step set by SetStep.
func (w *Worker) Step() int { return w.step }

// Ledger returns the ledger of the Run this worker belongs to: the run's
// merged stats, wire bytes and collective count.
func (w *Worker) Ledger() *Ledger { return w.led }

// OverlapStats returns the worker's exposed and total collective seconds
// (Ledger.OverlapOf).
func (w *Worker) OverlapStats() (exposed, total float64) { return w.led.OverlapOf(w.rank) }

// Time returns the worker's simulated clock in seconds.
func (w *Worker) Time() float64 { return w.led.TimeOf(w.rank) }

// Stats returns the worker's per-category simulated seconds (a fresh map).
func (w *Worker) Stats() map[string]float64 { return w.led.StatsOf(w.rank) }

// AlgSeconds returns the worker's simulated seconds per collective
// "op/algorithm" pair, the step-level engine's time breakdown.
func (w *Worker) AlgSeconds() map[string]float64 { return w.led.AlgSecondsOf(w.rank) }

// Compute advances the simulated clock by the given seconds under the
// category label (e.g. "forward-backward", "kfac-compute", "compress").
// An installed fault injector scales the charge by the worker's current
// straggler factor (1 when unafflicted).
func (w *Worker) Compute(seconds float64, category string) {
	w.led.ComputeRanks(w.rank, w.rank+1, seconds, nil, w.cluster.faults, w.step, category)
}

// wait records the collective's span and settles this worker on it,
// launched at the clock launch (the current one for a blocking call).
func (w *Worker) wait(out *collective.Outcome, launch float64, category string) {
	if rec := w.cluster.rec; rec != nil {
		w.noteObs(rec, out, category)
	}
	w.led.Wait(w.rank, w.rank+1, out, []float64{launch}, category)
}

// noteObs records the collective into the observability layer: a per-rank
// span over exactly the interval the wait charges (so per-algorithm span
// sums reconcile with AlgSeconds), once-per-collective wire-byte and
// autotuner-pick counters (rank 0 only, so totals are not multiplied by
// P), and — with transfer spans enabled — one link-occupancy span per
// scheduled transfer (each event recorded by its source rank so it appears
// exactly once).
func (w *Worker) noteObs(rec *obs.Recorder, out *collective.Outcome, category string) {
	now := w.Time()
	attrs := obs.NoAttrs
	attrs.Algorithm = out.Algorithm
	attrs.Label = category
	attrs.BytesIn = int64(out.Bytes)
	rec.Span(w.spanCtx, w.rank, obs.CatCollective, out.Op, now, max(out.Ends[w.rank], now), attrs)
	if w.rank == 0 {
		rec.Counter("collective/picks/" + out.Op + "/" + out.Algorithm).Inc()
		rec.Counter("wire/" + category + "/bytes").Add(float64(out.Bytes))
		rec.Counter("wire/total/bytes").Add(float64(out.Bytes))
	}
	if !rec.TransferSpans() {
		return
	}
	for _, ev := range out.Events {
		if ev.Src != w.rank {
			continue
		}
		ta := obs.NoAttrs
		ta.Algorithm = ev.Algorithm
		ta.Link = ev.Link.String()
		ta.Peer = ev.Dst
		ta.Step = ev.Step
		ta.BytesIn = int64(ev.Bytes)
		rec.Span(0, w.rank, obs.CatTransfer, ev.Op, ev.Start, ev.End, ta)
	}
}

// launch is the half every collective shares. It enters the collective
// (crash injection), rendezvouses this rank's payload with every rank's,
// and in the combine — every rank blocked — runs exec on the payloads from
// the arrival clocks (clamped to the wire cursor when serialized), books
// the outcome on the run's ledger, and hands each rank its result.
func launch[T, R any](w *Worker, payload T, exec func(in []T, starts []float64) ([]R, *collective.Outcome)) (R, *collective.Outcome) {
	w.enterCollective()
	c := w.cluster
	res, _ := c.rv.exchange(w.rank, w.Time(), payload, func(slots []any, times []float64) ([]any, []float64) {
		in := make([]T, len(slots))
		for i, s := range slots {
			in[i], _ = s.(T)
		}
		if c.serializeWire {
			times = WireStarts(w.led, make([]float64, len(times)), times)
		}
		rs, out := exec(in, times)
		w.led.Launch(out)
		res := make([]any, len(rs))
		for i, r := range rs {
			res[i] = launched[R]{r, out}
		}
		return res, out.Ends
	})
	l := res.(launched[R])
	return l.data, l.out
}

// launched carries one rank's result and the shared outcome through the
// rendezvous.
type launched[R any] struct {
	data R
	out  *collective.Outcome
}

// AllReduce sums data element-wise across all workers in place (averaging
// is the caller's choice). The wire charge is 4·len bytes (FP32 on the
// wire), scheduled by the engine's chosen all-reduce algorithm. It is the
// launch with an immediate wait: at launch == now the wait charges exactly
// the blocked interval and credits nothing as hidden.
func (w *Worker) AllReduce(data []float64, category string) {
	w.AllReduceAsync(data, category).Wait()
}

// AllGather exchanges each worker's byte payload (which may be empty) and
// returns all payloads in rank order — the collective COMPSO compresses.
// The schedule uses the actual per-worker sizes.
func (w *Worker) AllGather(payload []byte, category string) [][]byte {
	return w.AllGatherAsync(payload, category).Wait()
}

// Broadcast sends root's payload to every worker.
func (w *Worker) Broadcast(payload []byte, root int, category string) []byte {
	pool.AssertNotArena(payload, "Broadcast payload")
	data, out := launch(w, payload, func(bufs [][]byte, starts []float64) ([][]byte, *collective.Outcome) {
		data, out := w.cluster.engine.Broadcast(bufs, root, starts)
		return slices.Repeat([][]byte{data}, len(bufs)), out
	})
	w.wait(out, w.Time(), category)
	return data
}

// ReduceScatter sums data element-wise across workers and returns this
// worker's collective.ShardRange shard of the result.
func (w *Worker) ReduceScatter(data []float64, category string) []float64 {
	shard, out := launch(w, data, w.cluster.engine.ReduceScatter)
	w.wait(out, w.Time(), category)
	return shard
}

// Barrier synchronizes all workers' clocks to the maximum.
func (w *Worker) Barrier() {
	w.enterCollective()
	_, tEnd := w.cluster.rv.exchange(w.rank, w.Time(), nil, func(_ []any, times []float64) ([]any, []float64) {
		return make([]any, len(times)), slices.Repeat([]float64{slices.Max(times)}, len(times))
	})
	w.led.BarrierRanks(w.rank, w.rank+1, tEnd)
}
