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
// schedules (internal/collective) the goroutine engine uses, via
// Engine.Exec with the clock vector as the arrival times, and charges them
// on the same cluster.Ledger the goroutine workers settle on, every rank in
// one pass. So a World run is bit-identical to the goroutine engine's
// simulated times, per-algorithm attribution and event traces at every
// world size (the des tests hold that at P ≤ 16), while the ledger's pooled
// columns and no goroutines let an 8192-worker sweep run in seconds.
package des

import (
	"fmt"

	"compso/internal/cluster"
	"compso/internal/collective"
	"compso/internal/fault"
	"compso/internal/pool"
)

// World simulates P SPMD workers without running them: the embedded
// ledger's per-rank clocks advance through compute charges and
// engine-scheduled collectives, driven sequentially from a single
// goroutine. Methods must not be called concurrently.
type World struct {
	*cluster.Ledger
	cfg    cluster.Config
	engine *collective.Engine
	faults *fault.Injector
	step   int
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
	w := &World{Ledger: cluster.NewLedger(p, true), cfg: cfg, engine: cluster.EngineFor(cfg, p)}
	w.engine.SetEventRetention(false)
	return w
}

// Config returns the platform configuration.
func (w *World) Config() cluster.Config { return w.cfg }

// Engine returns the collective engine dispatching this world's
// collectives (for prediction queries and tuner inspection).
func (w *World) Engine() *collective.Engine { return w.engine }

// SetTracing turns per-rank event-trace retention on or off — the switch
// cluster.Cluster.SetTracing is too. Off by default: a mega-scale ring
// all-gather schedules millions of transfers per collective. Call before
// executing collectives.
func (w *World) SetTracing(on bool) {
	w.Ledger.SetTracing(on)
	w.engine.SetEventRetention(on)
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

// Compute advances every rank's clock by seconds under the category
// label, scaled per rank by the installed fault injector's straggler
// factor (1 when unafflicted).
func (w *World) Compute(seconds float64, category string) {
	w.ComputeEach(func(int) float64 { return seconds }, category)
}

// ComputeEach advances each rank's clock by its own charge (before the
// straggler factor), for heterogeneous per-rank work.
func (w *World) ComputeEach(secondsOf func(rank int) float64, category string) {
	w.ComputeRanks(0, w.Size(), secondsOf, w.faults, w.step, category)
}

// exec schedules one collective at the current clocks and settles every
// rank on it.
func (w *World) exec(op string, sizes []int, root int, category string) {
	w.Settle(w.engine.Exec(op, sizes, root, w.Clocks()), category)
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
	sizes := pool.Ints(w.Size())
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

// ReduceScatter simulates a reduce-scatter of nElems float64s split into
// the goroutine engine's collective.ShardRange shards.
func (w *World) ReduceScatter(nElems int, category string) {
	sizes := pool.Ints(w.Size())
	for r := range sizes {
		lo, hi := collective.ShardRange(nElems, len(sizes), r)
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
func (w *World) Barrier() { w.BarrierRanks(0, w.Size(), w.MaxTime()) }
