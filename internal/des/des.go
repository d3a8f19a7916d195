// Package des is the discrete-event (SimOnly) execution engine for
// mega-scale cluster simulation.
//
// The goroutine engine in internal/cluster runs P live workers that
// rendezvous per collective, moving real payload bytes; it tops out around
// paper scale (64 GPUs). At fleet scale no payload math is needed per rank:
// the bytes every rank would contribute are computed once on a model rank,
// and only the *timing* differs per rank. A World is that timing
// substrate: a single-threaded loop that replays a Program, advancing P
// virtual clocks through the same step-level collective schedules
// (Engine.Exec with the clock vector as the arrival times) and charging
// them on the same cluster.Ledger the goroutine workers settle on, every
// rank in one pass. So a World run is bit-identical to the goroutine
// engine's (the des tests hold that at P ≤ 16), while pooled columns and no
// goroutines let an 8192-worker sweep run in seconds.
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
// goroutine by RunOnWorld. Methods must not be called concurrently.
type World struct {
	*cluster.Ledger
	engine *collective.Engine
	faults *fault.Injector
	step   int
	// serial queues every collective on the ledger's wire cursor and books
	// exposure on every wait, as the goroutine cluster does under
	// SerializeWire. RunOnWorld sets it for a program that launches.
	serial bool
}

// NewWorld builds a discrete-event world of p workers on the platform. Its
// engine retains no per-transfer events: a mega-scale ring all-gather
// schedules millions of transfers per collective, and nothing reads them.
// It panics on an invalid configuration, matching cluster.New.
func NewWorld(cfg cluster.Config, p int) *World {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if p <= 0 {
		panic(fmt.Sprintf("des: %d workers", p))
	}
	w := &World{Ledger: cluster.NewLedger(p, true), engine: cluster.EngineFor(cfg, p)}
	w.engine.SetEventRetention(false)
	return w
}

// InjectFaults installs a fault injector: straggler compute multipliers
// apply to compute charges and degraded-link perturbations apply to every
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

// The World as a program engine (program.go): every op on every rank at
// once.

func (w *World) setStep(it int) { w.step = it }

func (w *World) compute(op Op) {
	var perRank []float64
	if op.Kind == KindComputeEach {
		perRank = op.PerRank
	}
	w.ComputeRanks(0, w.Size(), op.Seconds, perRank, w.faults, w.step, op.Category)
}

// barrier synchronizes all clocks to the maximum, charging the waiting time
// to "barrier" (free of launch cost, like the goroutine engine's Barrier).
func (w *World) barrier() { w.BarrierRanks(0, w.Size(), w.MaxTime()) }

// collective schedules op's collective from the current clocks — queued
// behind the wire cursor when serial — books it on the ledger, and returns
// its wait. A launch keeps a pooled copy of the clocks to wait against. A
// blocking call is waited at once, so under serial its launch clocks are
// the clocks themselves and the wait books exposure, as the goroutine
// cluster's blocking calls do; otherwise it books none.
func (w *World) collective(op Op) func() {
	p, kind := w.Size(), op.Kind
	if kind == KindLaunch {
		kind = op.Of
	}
	name, sizes, root := collective.OpAllReduce, []int{4 * op.Elems}, 0
	switch kind {
	case KindBroadcast:
		name, sizes, root = collective.OpBroadcast, []int{op.Bytes}, op.Root
	case KindAllGather, KindReduceScatter:
		name, sizes = collective.OpAllGather, pool.Ints(p)
		defer pool.PutInts(sizes)
		for r := range sizes {
			if kind == KindAllGather {
				sizes[r] = gatherSize(op, r)
				continue
			}
			lo, hi := collective.ShardRange(op.Elems, p, r)
			name, sizes[r] = collective.OpReduceScatter, 4*(hi-lo)
		}
	}
	starts := w.Clocks()
	if w.serial {
		starts = cluster.WireStarts(w.Ledger, make([]float64, p), starts)
	}
	out := w.engine.Exec(name, sizes, root, starts)
	w.Launch(out)
	if op.Kind == KindLaunch {
		launch := append(pool.F64(p)[:0], w.Clocks()...)
		return func() {
			w.Wait(0, p, out, launch, op.Category)
			pool.PutF64(launch)
		}
	}
	var launch []float64
	if w.serial {
		launch = w.Clocks()
	}
	return func() { w.Wait(0, p, out, launch, op.Category) }
}
