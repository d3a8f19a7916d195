package cluster

import (
	"slices"

	"compso/internal/collective"
	"compso/internal/pool"
)

// Launch/wait collective handles: the one implementation of all-reduce and
// all-gather. The training step's schedules (internal/train/step.go) place
// compute between a launch and its wait to hide the collective's latency;
// the blocking Worker.AllReduce/AllGather are a launch with an immediate
// wait.
//
//   - Launch (AllReduceAsync / AllGatherAsync) performs the rendezvous, the
//     data exchange and the engine scheduling at once — every rank must
//     reach the launch in identical program order — and books the
//     collective's once-per-collective totals (Ledger.Launch). It never
//     advances a clock, so the numerics never depend on where the wait is.
//   - Wait settles the worker's rank (Ledger.Wait) at its *current* clock,
//     charging only the part of the latency the clock has not already
//     passed. Every handle must be waited exactly once per rank, in any
//     per-rank order.
//   - With Cluster.SerializeWire enabled, collectives launched while
//     earlier ones are in flight queue on the simulated fabric.

// Pending is a collective in flight: launched and scheduled, but not yet
// charged to the worker's clock.
type Pending[T any] struct {
	w        *Worker
	out      *collective.Outcome
	launch   float64
	category string
	data     T
	done     bool
}

// PendingReduce is an all-reduce in flight; PendingGather an all-gather.
type (
	PendingReduce = Pending[[]float64]
	PendingGather = Pending[[][]byte]
)

// Wait charges the exposed (non-hidden) communication time to the worker's
// clock and returns the collective's result; a second Wait only returns it.
func (p *Pending[T]) Wait() T {
	if !p.done {
		p.done = true
		p.w.wait(p.out, p.launch, p.category)
	}
	return p.data
}

// AllReduceAsync launches an element-wise sum of data across all workers
// and returns a handle; the summed values land in data, which Wait
// returns. The input is read only during the launch rendezvous (all ranks
// blocked), so pooled buffers are safe here — unlike AllGather/Broadcast
// payloads, nothing retains it afterwards.
//
// The combining rank sums into the cluster's one sum buffer, and every
// rank copies the sum out into data as it leaves the launch. That is
// before it can arrive at any later collective, and the next combine
// starts only once every rank has arrived there, so no combine overwrites
// a sum a rank has yet to copy.
func (w *Worker) AllReduceAsync(data []float64, category string) *PendingReduce {
	c := w.cluster
	sum, out := launch(w, data, func(vecs [][]float64, starts []float64) ([][]float64, *collective.Outcome) {
		var out *collective.Outcome
		c.sum, out = c.engine.AllReduce(c.sum, vecs, starts)
		return slices.Repeat([][]float64{c.sum}, len(vecs)), out
	})
	copy(data, sum)
	return &PendingReduce{w: w, out: out, launch: w.Time(), category: category, data: data}
}

// AllGatherAsync launches a byte-payload all-gather (payloads may be
// empty) and returns a handle; Wait returns all payloads in rank order.
// The payload is retained by other workers' goroutines after the launch,
// so it must never come from the pool arena.
func (w *Worker) AllGatherAsync(payload []byte, category string) *PendingGather {
	pool.AssertNotArena(payload, "AllGather payload")
	data, out := launch(w, payload, func(payloads [][]byte, starts []float64) ([][][]byte, *collective.Outcome) {
		data, out := w.cluster.engine.AllGather(payloads, starts)
		return slices.Repeat([][][]byte{data}, len(payloads)), out
	})
	return &PendingGather{w: w, out: out, launch: w.Time(), category: category, data: data}
}
