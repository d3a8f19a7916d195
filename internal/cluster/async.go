package cluster

import (
	"compso/internal/collective"
	"compso/internal/pool"
)

// Launch/wait collective handles: the one implementation of all-reduce and
// all-gather. The training step's schedules (internal/train/step.go) place
// compute between a launch and its wait to hide the collective's latency;
// the blocking Worker.AllReduce/AllGather are a launch with an immediate
// wait.
//
// The launch/wait contract:
//
//   - Launch (AllReduceAsync / AllGatherAsync) performs the rendezvous and
//     the engine scheduling immediately — every rank must reach the launch
//     in identical program order — and books the collective's
//     once-per-collective totals (Ledger.Launch). It never advances a clock.
//   - Wait settles the worker's rank (Ledger.Wait) at its *current* clock.
//     A collective whose scheduled end the clock has already passed charges
//     nothing: its latency was hidden behind the compute issued between
//     launch and wait. Wait is idempotent; every handle must be waited
//     exactly once per rank, in any per-rank order.
//   - With Cluster.SerializeWire enabled, collectives launched while
//     earlier ones are still in flight queue on the simulated fabric
//     instead of being scheduled as if each had the links to itself.
//
// The data exchange happens at launch under the rendezvous (all ranks
// blocked), so the numerics never depend on where the wait is placed —
// only the accounting moment does.

// PendingReduce is an all-reduce in flight: launched, scheduled, but not
// yet charged to the worker's clock.
type PendingReduce struct {
	w        *Worker
	out      *collective.Outcome
	launch   float64
	category string
	dst      []float64
	sum      []float64
	done     bool
}

// AllReduceAsync launches an element-wise sum of data across all workers
// and returns a handle; the summed values land in data at Wait. The input
// is read only during the launch rendezvous (all ranks blocked), so pooled
// buffers are safe here — unlike AllGather/Broadcast payloads, nothing
// retains it afterwards.
func (w *Worker) AllReduceAsync(data []float64, category string) *PendingReduce {
	w.enterCollective()
	c := w.cluster
	res, _ := c.rv.exchange(w.rank, w.Time(), data, func(slots []any, times []float64) ([]any, []float64) {
		vecs := make([][]float64, len(slots))
		for i, s := range slots {
			vecs[i] = s.([]float64)
		}
		sum, out := c.engine.AllReduce(vecs, c.wireStarts(times))
		c.launch(w.led, out)
		return sameForAll(c.p, collResult{data: sum, out: out}), out.Ends
	})
	cr := res.(collResult)
	return &PendingReduce{
		w: w, out: cr.out, launch: w.Time(), category: category,
		dst: data, sum: cr.data.([]float64),
	}
}

// Wait copies the reduced sum into the launch slice and charges the
// exposed (non-hidden) communication time to the worker's clock.
func (p *PendingReduce) Wait() {
	if p.done {
		return
	}
	p.done = true
	copy(p.dst, p.sum)
	p.w.wait(p.out, p.launch, p.category)
}

// PendingGather is an all-gather in flight: launched, scheduled, but not
// yet charged to the worker's clock.
type PendingGather struct {
	w        *Worker
	out      *collective.Outcome
	launch   float64
	category string
	data     [][]byte
	done     bool
}

// AllGatherAsync launches a byte-payload all-gather (payloads may be
// empty) and returns a handle; Wait returns all payloads in rank order.
// The payload is retained by other workers' goroutines after the launch,
// so it must never come from the pool arena.
func (w *Worker) AllGatherAsync(payload []byte, category string) *PendingGather {
	w.enterCollective()
	pool.AssertNotArena(payload, "AllGather payload")
	c := w.cluster
	res, _ := c.rv.exchange(w.rank, w.Time(), payload, func(slots []any, times []float64) ([]any, []float64) {
		payloads := make([][]byte, len(slots))
		for i, s := range slots {
			payloads[i], _ = s.([]byte)
		}
		data, out := c.engine.AllGather(payloads, c.wireStarts(times))
		c.launch(w.led, out)
		return sameForAll(c.p, collResult{data: data, out: out}), out.Ends
	})
	cr := res.(collResult)
	return &PendingGather{
		w: w, out: cr.out, launch: w.Time(), category: category,
		data: cr.data.([][]byte),
	}
}

// Wait returns every rank's payload and charges the exposed (non-hidden)
// communication time to the worker's clock.
func (p *PendingGather) Wait() [][]byte {
	if !p.done {
		p.done = true
		p.w.wait(p.out, p.launch, p.category)
	}
	return p.data
}
