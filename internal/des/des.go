// Package des is the discrete-event (SimOnly) execution engine for
// mega-scale cluster simulation.
//
// The goroutine engine in internal/cluster runs P live workers that
// rendezvous through a barrier per collective: P stacks, P× worker state,
// and O(P) scheduler wakeups per collective. That is the right substrate
// when the workload moves real payload bytes (convergence experiments
// need every rank's actual gradients), but it tops out around paper scale
// (64 GPUs). For the questions that only appear at fleet scale —
// autotuner behaviour across hundreds of nodes, straggler and link-fault
// dynamics, hierarchical-schedule wins at thousands of ranks — no payload
// math is needed per rank: the bytes every rank would contribute can be
// computed once on a model rank, and only the *timing* of the exchange
// differs per rank.
//
// A World is that timing substrate: a single-threaded event loop that
// advances P virtual clocks through the same step-level collective
// schedules (internal/collective) the goroutine engine uses. Each
// collective executes as timestamped link-occupancy events via
// Engine.Exec with the per-rank clock vector as the arrival times, so a
// World run is bit-identical to the goroutine engine's simulated times,
// per-algorithm attribution and event traces at every world size — the
// golden contract enforced by the des test suite at P ≤ 16. One World
// holds O(P) floats per stat category (pooled through internal/pool) and
// no goroutines, so an 8192-worker hierarchical sweep fits in a few
// hundred MB and runs in seconds.
package des

import (
	"fmt"
	"unsafe"

	"compso/internal/cluster"
	"compso/internal/collective"
	"compso/internal/fault"
	"compso/internal/pool"
)

// traceCap bounds each rank's retained event trace, mirroring the
// goroutine engine's ring so traces compare bit-identically.
const traceCap = 4096

// eventBytes sizes one trace event for Footprint accounting.
var eventBytes = int(unsafe.Sizeof(collective.Event{}))

// World simulates P SPMD workers without running them: per-rank virtual
// clocks advance through compute charges and engine-scheduled
// collectives, driven sequentially from a single goroutine. Methods must
// not be called concurrently.
type World struct {
	cfg    cluster.Config
	p      int
	engine *collective.Engine
	faults *fault.Injector

	// clocks is each rank's simulated time (pooled).
	clocks []float64
	// stats and algStats map a category (or "op/algorithm") to a pooled
	// per-rank seconds vector — the columnar layout of the goroutine
	// engine's per-worker maps. A handful of shared keys instead of P
	// maps is what keeps 8k-rank worlds small.
	stats    map[string][]float64
	algStats map[string][]float64

	step  int
	colls int64
	wire  int64
	// measSchedule/predSchedule mirror Worker.ScheduleSeconds: identical
	// for every rank, so one scalar pair serves all P.
	measSchedule, predSchedule float64

	// tracing retains per-rank event rings (off by default: a mega-scale
	// ring all-gather schedules millions of transfers per collective).
	tracing    bool
	traces     [][]collective.Event
	traceHeads []int
	evTotals   []int64

	released bool
}

// NewWorld builds a discrete-event world of p workers on the platform.
// Event retention starts disabled (see SetTracing). It panics on an
// invalid configuration, matching cluster.New.
func NewWorld(cfg cluster.Config, p int) *World {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if p <= 0 {
		panic(fmt.Sprintf("des: %d workers", p))
	}
	clocks := pool.F64(p)
	clear(clocks)
	w := &World{
		cfg: cfg, p: p,
		engine:   cluster.EngineFor(cfg, p),
		clocks:   clocks,
		stats:    make(map[string][]float64),
		algStats: make(map[string][]float64),
	}
	w.engine.SetEventRetention(false)
	return w
}

// Size returns the world size.
func (w *World) Size() int { return w.p }

// Config returns the platform configuration.
func (w *World) Config() cluster.Config { return w.cfg }

// Engine returns the collective engine dispatching this world's
// collectives (for prediction queries and tuner inspection).
func (w *World) Engine() *collective.Engine { return w.engine }

// SetTracing enables per-rank event-trace retention (ring of the most
// recent traceCap events per rank, like the goroutine engine). Off by
// default: at mega scale the trace dominates memory. Call before
// executing collectives.
func (w *World) SetTracing(on bool) {
	w.tracing = on
	w.engine.SetEventRetention(on)
	if on && w.traces == nil {
		w.traces = make([][]collective.Event, w.p)
		w.traceHeads = make([]int, w.p)
		w.evTotals = make([]int64, w.p)
	}
}

// InjectFaults installs a fault injector: straggler compute multipliers
// apply to Compute charges and degraded-link perturbations apply to every
// scheduled collective, exactly as on the goroutine engine. Payload
// corruption has no effect (a World moves no bytes). A nil injector (the
// default) keeps the fault-free fast path.
func (w *World) InjectFaults(inj *fault.Injector) {
	w.faults = inj
	if inj != nil {
		w.engine.SetPerturber(inj)
	} else {
		w.engine.SetPerturber(nil)
	}
}

// SetStep tells the world which training iteration it is simulating, so
// transient faults (straggler windows) can key on it.
func (w *World) SetStep(it int) { w.step = it }

// Step returns the last step set by SetStep.
func (w *World) Step() int { return w.step }

// statVec returns the pooled per-rank vector for a category, allocating
// (zeroed) on first use.
func statVec(m map[string][]float64, key string, p int) []float64 {
	v, ok := m[key]
	if !ok {
		v = pool.F64(p)
		clear(v)
		m[key] = v
	}
	return v
}

// Compute advances every rank's clock by seconds under the category
// label, scaled per rank by the installed fault injector's straggler
// factor (1 when unafflicted) — the vectorized Worker.Compute.
func (w *World) Compute(seconds float64, category string) {
	if seconds < 0 {
		panic(fmt.Sprintf("des: negative compute time %g", seconds))
	}
	cat := statVec(w.stats, category, w.p)
	if w.faults == nil {
		for r := range w.clocks {
			w.clocks[r] += seconds
			cat[r] += seconds
		}
		return
	}
	for r := range w.clocks {
		s := seconds * w.faults.ComputeFactor(r, w.step)
		w.clocks[r] += s
		cat[r] += s
	}
}

// ComputeEach advances each rank's clock by its own charge (before the
// straggler factor), for heterogeneous per-rank work.
func (w *World) ComputeEach(secondsOf func(rank int) float64, category string) {
	cat := statVec(w.stats, category, w.p)
	for r := range w.clocks {
		s := secondsOf(r)
		if s < 0 {
			panic(fmt.Sprintf("des: negative compute time %g for rank %d", s, r))
		}
		if w.faults != nil {
			s *= w.faults.ComputeFactor(r, w.step)
		}
		w.clocks[r] += s
		cat[r] += s
	}
}

// exec schedules one collective at the current clocks and charges every
// rank's blocked interval, mirroring Worker.note + Worker.account.
func (w *World) exec(op string, sizes []int, root int, category string) *collective.Outcome {
	if w.released {
		panic("des: world used after Release")
	}
	out := w.engine.Exec(op, sizes, root, w.clocks)
	w.colls++
	w.wire += int64(out.Bytes)
	w.measSchedule += out.MaxEnd() - out.Start
	w.predSchedule += out.Predicted
	alg := statVec(w.algStats, out.Op+"/"+out.Algorithm, w.p)
	cat := statVec(w.stats, category, w.p)
	for r := 0; r < w.p; r++ {
		if end := out.Ends[r]; end > w.clocks[r] {
			d := end - w.clocks[r]
			alg[r] += d
			cat[r] += d
			w.clocks[r] = end
		}
	}
	if w.tracing {
		// One walk in schedule order appends each event to the rings
		// Outcome.EventsFor would have selected it for — its endpoints, or
		// every rank for an analytic summary (Src = Dst = -1) — so each
		// rank's arrival order is the goroutine engine's.
		for _, ev := range out.Events {
			if ev.Src < 0 {
				for r := 0; r < w.p; r++ {
					w.addEvent(r, ev)
				}
				continue
			}
			w.addEvent(ev.Src, ev)
			if ev.Dst != ev.Src {
				w.addEvent(ev.Dst, ev)
			}
		}
	}
	return out
}

func (w *World) addEvent(rank int, ev collective.Event) {
	w.evTotals[rank]++
	ring := w.traces[rank]
	if len(ring) < traceCap {
		if ring == nil {
			ring = make([]collective.Event, 0, traceCap)
		}
		w.traces[rank] = append(ring, ev)
		return
	}
	ring[w.traceHeads[rank]] = ev
	w.traceHeads[rank] = (w.traceHeads[rank] + 1) % traceCap
}

// AllGather simulates an all-gather with per-rank contribution sizes
// (bytes; len must equal the world size).
func (w *World) AllGather(sizes []int, category string) {
	w.exec(collective.OpAllGather, sizes, 0, category)
}

// AllGatherUniform simulates an all-gather where every rank contributes
// bytes — the model-rank replication path: the payload is computed once
// and its size stands in for every rank's contribution.
func (w *World) AllGatherUniform(bytes int, category string) {
	sizes := pool.Ints(w.p)
	for i := range sizes {
		sizes[i] = bytes
	}
	w.exec(collective.OpAllGather, sizes, 0, category)
	pool.PutInts(sizes)
}

// AllReduce simulates an element-wise sum of nElems float64s across all
// ranks, charged at the goroutine engine's FP32 wire convention
// (4·nElems bytes).
func (w *World) AllReduce(nElems int, category string) {
	w.exec(collective.OpAllReduce, []int{4 * nElems}, 0, category)
}

// ReduceScatter simulates a reduce-scatter of nElems float64s, with the
// same shard split as the goroutine engine (rank r gets elements
// [r·n/P, (r+1)·n/P), the last rank absorbing the remainder).
func (w *World) ReduceScatter(nElems int, category string) {
	shard := nElems / w.p
	sizes := pool.Ints(w.p)
	for r := 0; r < w.p; r++ {
		lo, hi := r*shard, (r+1)*shard
		if r == w.p-1 {
			hi = nElems
		}
		sizes[r] = 4 * (hi - lo)
	}
	w.exec(collective.OpReduceScatter, sizes, 0, category)
	pool.PutInts(sizes)
}

// Broadcast simulates root sending bytes to every rank.
func (w *World) Broadcast(bytes, root int, category string) {
	w.exec(collective.OpBroadcast, []int{bytes}, root, category)
}

// Barrier synchronizes all clocks to the maximum, charging the waiting
// time to the "barrier" category (free of launch cost, like the
// goroutine engine's Barrier).
func (w *World) Barrier() {
	m := w.clocks[0]
	for _, t := range w.clocks[1:] {
		if t > m {
			m = t
		}
	}
	cat := statVec(w.stats, "barrier", w.p)
	for r := range w.clocks {
		if m > w.clocks[r] {
			cat[r] += m - w.clocks[r]
			w.clocks[r] = m
		}
	}
}

// TimeOf returns rank's simulated clock in seconds.
func (w *World) TimeOf(rank int) float64 { return w.clocks[rank] }

// MaxTime returns the latest rank clock — the run's simulated makespan.
func (w *World) MaxTime() float64 {
	m := w.clocks[0]
	for _, t := range w.clocks[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

// StatsOf returns rank's accumulated per-category simulated seconds (a
// fresh map, matching Worker.Stats key-for-key and bit-for-bit).
func (w *World) StatsOf(rank int) map[string]float64 {
	out := make(map[string]float64, len(w.stats))
	for k, v := range w.stats {
		if v[rank] != 0 {
			out[k] = v[rank]
		}
	}
	return out
}

// AlgSecondsOf returns rank's per-"op/algorithm" simulated seconds
// (matching Worker.AlgSeconds).
func (w *World) AlgSecondsOf(rank int) map[string]float64 {
	out := make(map[string]float64, len(w.algStats))
	for k, v := range w.algStats {
		if v[rank] != 0 {
			out[k] = v[rank]
		}
	}
	return out
}

// MergedStats sums each category across ranks — the MergeStats view.
func (w *World) MergedStats() map[string]float64 {
	out := make(map[string]float64, len(w.stats))
	for k, v := range w.stats {
		s := 0.0
		for _, x := range v {
			s += x
		}
		out[k] = s
	}
	return out
}

// MergedAlgSeconds sums each "op/algorithm" across ranks — the
// MergeAlgStats view.
func (w *World) MergedAlgSeconds() map[string]float64 {
	out := make(map[string]float64, len(w.algStats))
	for k, v := range w.algStats {
		s := 0.0
		for _, x := range v {
			s += x
		}
		out[k] = s
	}
	return out
}

// EventsOf returns a copy of rank's retained event trace in arrival
// order (empty unless SetTracing was enabled).
func (w *World) EventsOf(rank int) []collective.Event {
	if w.traces == nil {
		return nil
	}
	ring, head := w.traces[rank], w.traceHeads[rank]
	out := make([]collective.Event, 0, len(ring))
	out = append(out, ring[head:]...)
	out = append(out, ring[:head]...)
	return out
}

// TotalEventsOf returns how many trace events rank has seen, including
// ones evicted from the ring.
func (w *World) TotalEventsOf(rank int) int64 {
	if w.evTotals == nil {
		return 0
	}
	return w.evTotals[rank]
}

// ScheduleSeconds returns the accumulated executed-collective makespan
// seconds alongside the fault-free cost-model prediction — identical for
// every rank, mirroring Worker.ScheduleSeconds.
func (w *World) ScheduleSeconds() (measured, predicted float64) {
	return w.measSchedule, w.predSchedule
}

// WireBytes returns the total bytes all executed collectives put on the
// wire (counted once per collective, the wire/total/bytes convention).
func (w *World) WireBytes() int64 { return w.wire }

// Collectives returns how many collectives have executed.
func (w *World) Collectives() int64 { return w.colls }

// Footprint returns the bytes of per-rank simulator state the world
// currently holds (clocks, stat vectors, trace rings) — the memory that
// scales with world size.
func (w *World) Footprint() int64 {
	n := int64(cap(w.clocks)) * 8
	for _, v := range w.stats {
		n += int64(cap(v)) * 8
	}
	for _, v := range w.algStats {
		n += int64(cap(v)) * 8
	}
	for _, ring := range w.traces {
		n += int64(cap(ring)) * int64(eventBytes)
	}
	if w.traceHeads != nil {
		n += int64(len(w.traceHeads)) * 8
	}
	if w.evTotals != nil {
		n += int64(len(w.evTotals)) * 8
	}
	return n
}

// Release returns the world's pooled per-rank state to the buffer pool.
// The world must not be used afterwards.
func (w *World) Release() {
	if w.released {
		return
	}
	w.released = true
	pool.PutF64(w.clocks)
	w.clocks = nil
	for k, v := range w.stats {
		pool.PutF64(v)
		delete(w.stats, k)
	}
	for k, v := range w.algStats {
		pool.PutF64(v)
		delete(w.algStats, k)
	}
	w.traces, w.traceHeads, w.evTotals = nil, nil, nil
}
