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
//     in identical program order. Launch never advances the worker's
//     clock.
//   - Wait does the time accounting (note, creditHidden, account) at the
//     worker's *current* clock. A collective whose scheduled end the clock
//     has already passed charges nothing: its latency was fully hidden
//     behind the compute issued between launch and wait. Waited at the
//     launch clock it charges the whole blocked interval and credits
//     nothing as hidden. Wait is idempotent; every handle must be waited
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
	tEnd     float64
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
	res, tEnd := c.rv.exchange(w.rank, w.simTime, data, func(slots []any, times []float64) ([]any, []float64) {
		vecs := make([][]float64, len(slots))
		for i, s := range slots {
			vecs[i] = s.([]float64)
		}
		sum, out := c.engine.AllReduce(vecs, c.wireStarts(times))
		c.advanceWire(out)
		return sameForAll(c.p, collResult{data: sum, out: out}), out.Ends
	})
	cr := res.(collResult)
	return &PendingReduce{
		w: w, out: cr.out, tEnd: tEnd, launch: w.simTime, category: category,
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
	p.w.note(p.out, p.tEnd, p.category)
	p.w.creditHidden(p.tEnd, p.launch)
	p.w.account(p.tEnd, p.category)
}

// PendingGather is an all-gather in flight: launched, scheduled, but not
// yet charged to the worker's clock.
type PendingGather struct {
	w        *Worker
	out      *collective.Outcome
	tEnd     float64
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
	res, tEnd := c.rv.exchange(w.rank, w.simTime, payload, func(slots []any, times []float64) ([]any, []float64) {
		payloads := make([][]byte, len(slots))
		for i, s := range slots {
			payloads[i], _ = s.([]byte)
		}
		data, out := c.engine.AllGather(payloads, c.wireStarts(times))
		c.advanceWire(out)
		return sameForAll(c.p, collResult{data: data, out: out}), out.Ends
	})
	cr := res.(collResult)
	return &PendingGather{
		w: w, out: cr.out, tEnd: tEnd, launch: w.simTime, category: category,
		data: cr.data.([][]byte),
	}
}

// Wait returns every rank's payload and charges the exposed (non-hidden)
// communication time to the worker's clock.
func (p *PendingGather) Wait() [][]byte {
	if !p.done {
		p.done = true
		p.w.note(p.out, p.tEnd, p.category)
		p.w.creditHidden(p.tEnd, p.launch)
		p.w.account(p.tEnd, p.category)
	}
	return p.data
}

// creditHidden tops commFull up from the charged (exposed) interval to
// the collective's full launch-to-end latency — the hidden share an async
// wait never charges to the clock. Must run after note (which added the
// exposed share) and before account (which advances the clock).
func (w *Worker) creditHidden(tEnd, launch float64) {
	full := tEnd - launch
	if full < 0 {
		full = 0
	}
	charged := tEnd - w.simTime
	if charged < 0 {
		charged = 0
	}
	if full > charged {
		w.commFull += full - charged
	}
}
