package cluster

import (
	"fmt"
	"sort"
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

	// incarnation is the restart attempt this cluster serves (crash
	// recovery); downCh unblocks SendRecv waiters when a worker dies.
	incarnation int
	downOnce    sync.Once
	downCh      chan struct{}
}

// traceCap bounds each worker's retained event trace (most recent events
// win); the full per-collective trace still feeds per-algorithm stats.
const traceCap = 4096

// traceRings recycles worker event rings. Rings are allocated lazily — a
// worker that never retains an event (tracing disabled, or a run with no
// collectives) never owns one — and at exactly traceCap capacity, so an
// 8k-worker world does not pay append-doubling overshoot on thousands of
// rings. Pooled rings are cleared on put so evicted events do not pin
// payload-sized strings across runs.
var traceRings = sync.Pool{New: func() any {
	s := make([]collective.Event, 0, traceCap)
	return &s
}}

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
		if t < c.wireTail {
			t = c.wireTail
		}
		eff[i] = t
	}
	return eff
}

// advanceWire moves the wire cursor past a scheduled collective. Must be
// called inside a rendezvous combine.
func (c *Cluster) advanceWire(out *collective.Outcome) {
	if !c.serializeWire {
		return
	}
	if m := out.MaxEnd(); m > c.wireTail {
		c.wireTail = m
	}
}

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
// return. It returns the workers in rank order for post-run inspection
// (simulated time, per-category stats, per-algorithm stats, event traces).
func (c *Cluster) Run(fn func(w *Worker)) []*Worker {
	workers := make([]*Worker, c.p)
	var wg sync.WaitGroup
	for rank := 0; rank < c.p; rank++ {
		workers[rank] = &Worker{
			cluster: c, rank: rank,
			stats:    make(map[string]float64),
			algStats: make(map[string]float64),
		}
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			fn(w)
		}(workers[rank])
	}
	wg.Wait()
	return workers
}

// Worker is one simulated GPU. Methods must be called only from the
// goroutine Run assigned to it.
type Worker struct {
	cluster *Cluster
	rank    int
	simTime float64
	stats   map[string]float64
	// algStats accumulates simulated seconds per "op/algorithm" key.
	algStats map[string]float64
	// trace is a ring buffer of the most recent collective events this
	// worker participated in.
	trace      []collective.Event
	traceHead  int
	evTotal    int64
	traceIsOff bool
	// spanCtx is the current parent span for spans this worker records
	// (set by the training loop around steps and phases).
	spanCtx obs.SpanID
	// step is the training loop's current iteration (SetStep), which
	// windows transient fault injection.
	step int
	// collSeq counts the step's collective entries (reset by SetStep) —
	// the site index mid-collective crash injection keys on.
	collSeq int
	// measSchedule/predSchedule accumulate each executed collective's
	// makespan and its fault-free cost-model prediction — the divergence
	// signal the training loop's straggler guard watches.
	measSchedule, predSchedule float64
	// commExposed accumulates the seconds this worker actually spent
	// blocked on collectives — the exposed (non-hidden) communication
	// time. commFull accumulates each collective's full launch-to-end
	// latency: blocking calls add the same amount to both, async waits
	// add only the non-hidden remainder to commExposed. 1 − exposed/full
	// is the overlap-efficiency gauge.
	commExposed float64
	commFull    float64
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

// OverlapStats returns the seconds this worker spent blocked on
// collectives (exposed communication) alongside the full launch-to-end
// latency of every collective it participated in. For blocking calls the
// two are equal; an async handle whose Wait the clock has already passed
// contributes its full latency but zero exposure. Their ratio is the
// overlap scheduler's efficiency signal: hidden fraction = 1 − exposed /
// total, identically 0 for a fully sequential run. Read after Run, or
// from the worker's own goroutine.
func (w *Worker) OverlapStats() (exposed, total float64) {
	return w.commExposed, w.commFull
}

// ScheduleSeconds returns the worker's accumulated executed-collective
// makespan seconds alongside the fault-free cost-model prediction for the
// same schedule sequence. Under a healthy fabric the two track each other;
// sustained divergence is the straggler guard's re-tune trigger.
func (w *Worker) ScheduleSeconds() (measured, predicted float64) {
	return w.measSchedule, w.predSchedule
}

// Time returns the worker's simulated clock in seconds.
func (w *Worker) Time() float64 { return w.simTime }

// Stats returns the accumulated per-category simulated seconds. The map is
// live; read it only after Run returns.
func (w *Worker) Stats() map[string]float64 { return w.stats }

// AlgSeconds returns the accumulated simulated seconds per collective
// "op/algorithm" pair (e.g. "allgather/hierarchical"), the step-level
// engine's time breakdown. Read only after Run returns.
func (w *Worker) AlgSeconds() map[string]float64 { return w.algStats }

// Events returns a copy of the worker's retained event trace in arrival
// order (the most recent traceCap entries). Read only after Run returns.
// The copy is what makes ReleaseTrace safe: recycling the ring never
// invalidates a previously returned slice.
func (w *Worker) Events() []collective.Event {
	out := make([]collective.Event, 0, len(w.trace))
	out = append(out, w.trace[w.traceHead:]...)
	out = append(out, w.trace[:w.traceHead]...)
	return out
}

// ReleaseTrace returns the worker's event ring to the shared pool and
// resets the trace to empty. Call once the events are no longer needed
// (slices previously returned by Events remain valid — they are copies).
func (w *Worker) ReleaseTrace() {
	if w.trace == nil {
		return
	}
	ring := w.trace[:cap(w.trace)]
	clear(ring)
	ring = ring[:0]
	traceRings.Put(&ring)
	w.trace, w.traceHead = nil, 0
}

// ReleaseTraces recycles every worker's event ring (see ReleaseTrace).
// The training loop calls it when a run's workers are dropped, so long
// sweeps and crash-recovery restarts reuse rings instead of growing the
// heap by O(P·traceCap).
func ReleaseTraces(workers []*Worker) {
	for _, w := range workers {
		if w != nil {
			w.ReleaseTrace()
		}
	}
}

// TotalEvents returns how many trace events the worker has seen (including
// ones evicted from the ring buffer).
func (w *Worker) TotalEvents() int64 { return w.evTotal }

// DisableTrace stops event retention for this worker (per-algorithm stats
// are still kept). Useful for very long training runs.
func (w *Worker) DisableTrace() { w.traceIsOff = true }

// Compute advances the simulated clock by the given seconds under the
// category label (e.g. "forward-backward", "kfac-compute", "compress").
// An installed fault injector scales the charge by the worker's current
// straggler factor (1 when unafflicted).
func (w *Worker) Compute(seconds float64, category string) {
	if seconds < 0 {
		panic(fmt.Sprintf("cluster: negative compute time %g", seconds))
	}
	if f := w.cluster.faults; f != nil {
		seconds *= f.ComputeFactor(w.rank, w.step)
	}
	w.simTime += seconds
	w.stats[category] += seconds
}

// account charges a communication interval ending at tEnd to a category:
// the worker was blocked from its local time until the collective finished.
func (w *Worker) account(tEnd float64, category string) {
	if tEnd > w.simTime {
		w.stats[category] += tEnd - w.simTime
		w.simTime = tEnd
	}
}

// note records a collective outcome into the worker's per-algorithm stats,
// the observability recorder, and the event trace. Must be called before
// account advances the clock: the recorded span covers [w.simTime, tEnd],
// exactly the interval account charges, so per-algorithm span sums
// reconcile with AlgSeconds by construction.
func (w *Worker) note(out *collective.Outcome, tEnd float64, category string) {
	if out == nil {
		return
	}
	w.measSchedule += out.MaxEnd() - out.Start
	w.predSchedule += out.Predicted
	if tEnd > w.simTime {
		w.algStats[out.Op+"/"+out.Algorithm] += tEnd - w.simTime
		w.commExposed += tEnd - w.simTime
		w.commFull += tEnd - w.simTime
	}
	if rec := w.cluster.rec; rec != nil {
		w.noteObs(rec, out, tEnd, category)
	}
	if w.traceIsOff {
		return
	}
	for _, ev := range out.EventsFor(w.rank) {
		w.addEvent(ev)
	}
}

// noteObs records the collective into the observability layer: a per-rank
// blocked-time span, once-per-collective wire-byte and autotuner-pick
// counters (rank 0 only, so totals are not multiplied by P), and — with
// transfer spans enabled — one link-occupancy span per scheduled transfer
// (each event recorded by its source rank so it appears exactly once).
func (w *Worker) noteObs(rec *obs.Recorder, out *collective.Outcome, tEnd float64, category string) {
	end := tEnd
	if end < w.simTime {
		end = w.simTime
	}
	attrs := obs.NoAttrs
	attrs.Algorithm = out.Algorithm
	attrs.Label = category
	attrs.BytesIn = int64(out.Bytes)
	rec.Span(w.spanCtx, w.rank, obs.CatCollective, out.Op, w.simTime, end, attrs)
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

func (w *Worker) addEvent(ev collective.Event) {
	w.evTotal++
	if w.trace == nil {
		w.trace = *traceRings.Get().(*[]collective.Event)
	}
	if len(w.trace) < traceCap {
		w.trace = append(w.trace, ev)
		return
	}
	w.trace[w.traceHead] = ev
	w.traceHead = (w.traceHead + 1) % traceCap
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
	res, tEnd := c.rv.exchange(w.rank, w.simTime, payload, func(slots []any, times []float64) ([]any, []float64) {
		bufs := make([][]byte, len(slots))
		for i, s := range slots {
			bufs[i], _ = s.([]byte)
		}
		data, out := c.engine.Broadcast(bufs, root, c.wireStarts(times))
		c.advanceWire(out)
		return sameForAll(c.p, collResult{data: data, out: out}), out.Ends
	})
	cr := res.(collResult)
	w.note(cr.out, tEnd, category)
	w.account(tEnd, category)
	return cr.data.([]byte)
}

// ReduceScatter sums data element-wise across workers and returns this
// worker's 1/P shard of the result (rank r receives elements
// [r·n/P, (r+1)·n/P) of the sum, with the last rank absorbing the
// remainder).
func (w *Worker) ReduceScatter(data []float64, category string) []float64 {
	w.enterCollective()
	c := w.cluster
	res, tEnd := c.rv.exchange(w.rank, w.simTime, data, func(slots []any, times []float64) ([]any, []float64) {
		vecs := make([][]float64, len(slots))
		for i, s := range slots {
			vecs[i] = s.([]float64)
		}
		shards, out := c.engine.ReduceScatter(vecs, c.wireStarts(times))
		c.advanceWire(out)
		res := make([]any, c.p)
		for r := range res {
			res[r] = collResult{data: shards[r], out: out}
		}
		return res, out.Ends
	})
	cr := res.(collResult)
	w.note(cr.out, tEnd, category)
	w.account(tEnd, category)
	return cr.data.([]float64)
}

// Barrier synchronizes all workers' clocks to the maximum.
func (w *Worker) Barrier() {
	w.enterCollective()
	_, tEnd := w.cluster.rv.exchange(w.rank, w.simTime, nil, func(_ []any, times []float64) ([]any, []float64) {
		m := maxOf(times)
		ends := make([]float64, len(times))
		for i := range ends {
			ends[i] = m
		}
		return make([]any, len(times)), ends
	})
	w.account(tEnd, "barrier")
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
		bytes := len(payload)
		if len(st.payload) > bytes {
			bytes = len(st.payload)
		}
		start := w.simTime
		if st.t > start {
			start = st.t
		}
		tEnd := start + c.engine.P2PTime(w.rank, peer, bytes, start)
		st.reply <- pairReply{payload: payload, tEnd: tEnd}
		w.noteP2P(peer, bytes, start, tEnd)
		w.account(tEnd, category)
		return st.payload
	}
	st := &pairSlot{payload: payload, t: w.simTime, reply: make(chan pairReply, 1)}
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
	w.noteP2P(peer, max(len(payload), len(rep.payload)), w.simTime, rep.tEnd)
	w.account(rep.tEnd, category)
	return rep.payload
}

func (w *Worker) noteP2P(peer, bytes int, start, tEnd float64) {
	if tEnd > w.simTime {
		w.algStats[collective.OpSendRecv+"/p2p"] += tEnd - w.simTime
	}
	if rec := w.cluster.rec; rec != nil {
		// Cover exactly the interval account() charges so p2p span sums
		// reconcile with AlgSeconds.
		end := tEnd
		if end < w.simTime {
			end = w.simTime
		}
		a := obs.NoAttrs
		a.Algorithm = "p2p"
		a.Peer = peer
		a.BytesIn = int64(bytes)
		rec.Span(w.spanCtx, w.rank, obs.CatCollective, collective.OpSendRecv, w.simTime, end, a)
	}
	if w.traceIsOff {
		return
	}
	link := collective.LinkInter
	if w.cluster.engine.Topology().SameNode(w.rank, peer) {
		link = collective.LinkIntra
	}
	w.addEvent(collective.Event{
		Op: collective.OpSendRecv, Algorithm: "p2p",
		Src: w.rank, Dst: peer, Link: link, Bytes: bytes,
		Start: start, End: tEnd,
	})
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MergeStats sums per-category stats across workers and returns them with
// the sorted category list, for experiment reporting.
func MergeStats(workers []*Worker) (map[string]float64, []string) {
	merged := make(map[string]float64)
	for _, w := range workers {
		for k, v := range w.stats {
			merged[k] += v
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return merged, keys
}

// MergeAlgStats sums per-"op/algorithm" simulated seconds across workers —
// the per-algorithm communication breakdown the experiments report.
func MergeAlgStats(workers []*Worker) map[string]float64 {
	merged := make(map[string]float64)
	for _, w := range workers {
		for k, v := range w.algStats {
			merged[k] += v
		}
	}
	return merged
}
