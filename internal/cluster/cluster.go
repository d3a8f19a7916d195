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
	cfg    Config
	p      int
	rv     *rendezvous
	engine *collective.Engine
	rec    *obs.Recorder
	faults *fault.Injector

	pairMu sync.Mutex
	pairs  map[pairKey]*pairSlot

	// serializeWire queues engine-scheduled collectives on a single wire
	// cursor (wireTail), so collectives launched back-to-back without
	// blocking (the async handles) occupy the fabric one after another
	// instead of each being scheduled as if it had the links to itself.
	// Both fields are only touched inside rendezvous combines, which run
	// single-threaded with every rank blocked.
	serializeWire bool
	wireTail      float64

	// tracing is the event-trace switch each Run's ledger starts with.
	tracing bool

	// incarnation is the restart attempt this cluster serves (crash
	// recovery); downCh unblocks SendRecv waiters when a worker dies.
	incarnation int
	downOnce    sync.Once
	downCh      chan struct{}
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
		cfg: cfg, p: p, rv: newRendezvous(p),
		engine: EngineFor(cfg, p),
		pairs:  make(map[pairKey]*pairSlot),
		downCh: make(chan struct{}),
	}
}

// Config returns the platform configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Size returns the number of workers.
func (c *Cluster) Size() int { return c.p }

// Engine returns the collective engine dispatching this cluster's
// collectives (for prediction queries and tuner inspection).
func (c *Cluster) Engine() *collective.Engine { return c.engine }

// InjectFaults installs a fault injector: straggler compute multipliers
// apply to Worker.Compute charges, and degraded-link perturbations apply
// to every stepped collective schedule and SendRecv transfer (which is
// what makes the engine's measurement-refined autotuner re-tune under the
// degraded topology). Payload corruption is the training loop's concern —
// the cluster moves bytes verbatim. A nil injector (the default) keeps
// the fault-free fast path. Call before Run.
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

// SerializeWire enables (or disables) wire serialization for the async
// collective handles: each engine-scheduled collective starts no earlier
// than the previous one's makespan end. For a purely blocking workload the
// clamp changes nothing at the schedule level — every rank leaves a
// collective at or after its own end, so the next collective's last
// arrival is never before the previous makespan — but per-rank early
// finishers can arrive under the cursor, so the mode is off by default and
// only the overlap scheduler turns it on. Call before Run.
func (c *Cluster) SerializeWire(on bool) { c.serializeWire = on }

// wireStarts returns each rank's effective start time for the next
// engine-scheduled collective, clamped to the wire cursor when
// serialization is on. Must be called inside a rendezvous combine.
func (c *Cluster) wireStarts(times []float64) []float64 {
	if !c.serializeWire {
		return times
	}
	eff := make([]float64, len(times))
	for i, t := range times {
		eff[i] = max(t, c.wireTail)
	}
	return eff
}

// launch books a scheduled collective on the run's ledger and moves the
// wire cursor past it. Must be called inside a rendezvous combine.
func (c *Cluster) launch(led *Ledger, out *collective.Outcome) {
	led.Launch(out)
	if c.serializeWire {
		c.wireTail = max(c.wireTail, out.MaxEnd())
	}
}

// SetTracing turns per-rank event-trace retention on or off for the runs
// that follow — the switch des.World.SetTracing is too, off by default in
// both engines. Traces are read through Worker.Ledger. Call before Run.
func (c *Cluster) SetTracing(on bool) { c.tracing = on }

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
// (simulated time, stats, traces) after Run returns.
func (c *Cluster) Run(fn func(w *Worker)) []*Worker {
	led := NewLedger(c.p, false)
	led.SetTracing(c.tracing)
	c.engine.SetEventRetention(c.tracing || c.rec.TransferSpans())
	c.wireTail = 0
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

// Ledger returns the ledger of the Run this worker belongs to: its event
// trace, the run's merged stats, wire bytes and collective count.
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
	w.led.ComputeRanks(w.rank, w.rank+1, func(int) float64 { return seconds }, w.cluster.faults, w.step, category)
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
		src := ev.Src
		if src < 0 {
			// Analytic summary events have no endpoints; record once.
			if w.rank != 0 {
				continue
			}
			src = 0
		} else if src != w.rank {
			continue
		}
		ta := obs.NoAttrs
		ta.Algorithm = ev.Algorithm
		ta.Link = ev.Link.String()
		ta.Peer = ev.Dst
		ta.Step = ev.Step
		ta.BytesIn = int64(ev.Bytes)
		rec.Span(0, src, obs.CatTransfer, ev.Op, ev.Start, ev.End, ta)
	}
}

// collResult carries a collective's data plus its shared outcome through
// the rendezvous to each rank.
type collResult struct {
	data any
	out  *collective.Outcome
}

// sameForAll builds per-rank results all sharing one value.
func sameForAll(p int, v any) []any {
	res := make([]any, p)
	for i := range res {
		res[i] = v
	}
	return res
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
	w.enterCollective()
	pool.AssertNotArena(payload, "Broadcast payload")
	c := w.cluster
	res, _ := c.rv.exchange(w.rank, w.Time(), payload, func(slots []any, times []float64) ([]any, []float64) {
		bufs := make([][]byte, len(slots))
		for i, s := range slots {
			bufs[i], _ = s.([]byte)
		}
		data, out := c.engine.Broadcast(bufs, root, c.wireStarts(times))
		c.launch(w.led, out)
		return sameForAll(c.p, collResult{data: data, out: out}), out.Ends
	})
	cr := res.(collResult)
	w.wait(cr.out, w.Time(), category)
	return cr.data.([]byte)
}

// ReduceScatter sums data element-wise across workers and returns this
// worker's collective.ShardRange shard of the result.
func (w *Worker) ReduceScatter(data []float64, category string) []float64 {
	w.enterCollective()
	c := w.cluster
	res, _ := c.rv.exchange(w.rank, w.Time(), data, func(slots []any, times []float64) ([]any, []float64) {
		vecs := make([][]float64, len(slots))
		for i, s := range slots {
			vecs[i] = s.([]float64)
		}
		shards, out := c.engine.ReduceScatter(vecs, c.wireStarts(times))
		c.launch(w.led, out)
		res := make([]any, c.p)
		for r := range res {
			res[r] = collResult{data: shards[r], out: out}
		}
		return res, out.Ends
	})
	cr := res.(collResult)
	w.wait(cr.out, w.Time(), category)
	return cr.data.([]float64)
}

// Barrier synchronizes all workers' clocks to the maximum.
func (w *Worker) Barrier() {
	w.enterCollective()
	_, tEnd := w.cluster.rv.exchange(w.rank, w.Time(), nil, func(_ []any, times []float64) ([]any, []float64) {
		return make([]any, len(times)), slices.Repeat([]float64{slices.Max(times)}, len(times))
	})
	w.led.BarrierRanks(w.rank, w.rank+1, tEnd)
}

// pairKey identifies a SendRecv meeting point (unordered rank pair).
type pairKey struct{ lo, hi int }

type pairSlot struct {
	payload []byte
	t       float64
	reply   chan pairReply
}

type pairReply struct {
	payload []byte
	tEnd    float64
}

// SendRecv exchanges payloads with peer over the direct link between the
// two ranks (NVLink when co-located, the NICs otherwise), advancing both
// clocks to the transfer's completion. Both sides must call SendRecv with
// each other's rank (the SPMD contract — mismatched pairings deadlock, as
// they would on a real cluster). It is the transport primitive the
// step-level collective algorithms are built from, exposed for custom
// exchange patterns.
func (w *Worker) SendRecv(peer int, payload []byte, category string) []byte {
	c := w.cluster
	if peer == w.rank {
		return payload
	}
	if peer < 0 || peer >= c.p {
		panic(fmt.Sprintf("cluster: SendRecv peer %d, world %d", peer, c.p))
	}
	k := pairKey{lo: w.rank, hi: peer}
	if k.lo > k.hi {
		k.lo, k.hi = k.hi, k.lo
	}
	c.pairMu.Lock()
	if st, ok := c.pairs[k]; ok {
		// Second arriver: compute the transfer and release the partner.
		delete(c.pairs, k)
		c.pairMu.Unlock()
		bytes := max(len(payload), len(st.payload))
		start := max(w.Time(), st.t)
		tEnd := start + c.engine.P2PTime(w.rank, peer, bytes, start)
		st.reply <- pairReply{payload: payload, tEnd: tEnd}
		w.exchanged(peer, bytes, start, tEnd, category)
		return st.payload
	}
	st := &pairSlot{payload: payload, t: w.Time(), reply: make(chan pairReply, 1)}
	c.pairs[k] = st
	c.pairMu.Unlock()
	var rep pairReply
	select {
	case rep = <-st.reply:
	case <-c.downCh:
		// The partner (or any peer) died before pairing up; unwind like
		// any other synchronization point. A race where the reply lands
		// anyway is resolved in the reply's favor — the data exchange
		// completed before the loss surfaced here.
		select {
		case rep = <-st.reply:
		default:
			_, p := c.rv.poisoned()
			panic(p)
		}
	}
	w.exchanged(peer, max(len(payload), len(rep.payload)), w.Time(), rep.tEnd, category)
	return rep.payload
}

// exchanged records a point-to-point transfer's span and settles this
// worker on it.
func (w *Worker) exchanged(peer, bytes int, start, tEnd float64, category string) {
	if rec := w.cluster.rec; rec != nil {
		// Cover exactly the interval the ledger charges so p2p span sums
		// reconcile with AlgSeconds.
		a := obs.NoAttrs
		a.Algorithm = "p2p"
		a.Peer = peer
		a.BytesIn = int64(bytes)
		now := w.Time()
		rec.Span(w.spanCtx, w.rank, obs.CatCollective, collective.OpSendRecv, now, max(tEnd, now), a)
	}
	link := collective.LinkInter
	if w.cluster.engine.Topology().SameNode(w.rank, peer) {
		link = collective.LinkIntra
	}
	w.led.Exchange(w.rank, collective.Event{
		Op: collective.OpSendRecv, Algorithm: "p2p",
		Src: w.rank, Dst: peer, Link: link, Bytes: bytes,
		Start: start, End: tEnd,
	}, category)
}
