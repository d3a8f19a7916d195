package des

import (
	"fmt"

	"compso/internal/cluster"
)

// OpKind enumerates the simulated operations a Program can express.
type OpKind uint8

const (
	// KindCompute charges Seconds of compute to every rank.
	KindCompute OpKind = iota
	// KindComputeEach charges PerRank[r] seconds of compute to rank r.
	KindComputeEach
	// KindAllGather runs an all-gather; Sizes holds per-rank contribution
	// bytes (length 1 means every rank contributes Sizes[0]).
	KindAllGather
	// KindAllReduce runs an all-reduce of Elems float64s.
	KindAllReduce
	// KindReduceScatter runs a reduce-scatter of Elems float64s.
	KindReduceScatter
	// KindBroadcast sends Bytes from Root to every rank.
	KindBroadcast
	// KindBarrier synchronizes all clocks to the maximum.
	KindBarrier
	// KindSetStep marks the start of training iteration Step.
	KindSetStep
)

// Op is one operation of a communication program.
type Op struct {
	Kind     OpKind
	Category string
	// Seconds is the compute charge (KindCompute).
	Seconds float64
	// PerRank holds per-rank compute charges (KindComputeEach); its length
	// must equal the world size.
	PerRank []float64
	// Sizes holds per-rank all-gather contribution bytes (KindAllGather);
	// length 1 replicates Sizes[0] to every rank.
	Sizes []int
	// Elems is the reduction length in float64 elements (KindAllReduce,
	// KindReduceScatter).
	Elems int
	// Bytes is the broadcast payload size (KindBroadcast).
	Bytes int
	// Root is the broadcast root rank (KindBroadcast).
	Root int
	// Step is the iteration number (KindSetStep).
	Step int
}

// Program is a rank-agnostic SPMD communication trace: the same op list
// every rank executes in lockstep. It is the common language of the two
// execution engines — RunOnWorld replays it on the discrete-event engine,
// RunOnCluster on the goroutine engine — which is how the golden
// bit-identity tests compare them on identical workloads.
type Program []Op

// gatherSize returns rank's all-gather contribution in a world of p.
func gatherSize(op Op, p, rank int) int {
	switch len(op.Sizes) {
	case 1:
		return op.Sizes[0]
	case p:
		return op.Sizes[rank]
	}
	panic(fmt.Sprintf("des: allgather op with %d sizes, world %d", len(op.Sizes), p))
}

// RunOnWorld replays the program on a discrete-event world.
func RunOnWorld(w *World, prog Program) {
	for _, op := range prog {
		switch op.Kind {
		case KindCompute:
			w.Compute(op.Seconds, op.Category)
		case KindComputeEach:
			if len(op.PerRank) != w.Size() {
				panic(fmt.Sprintf("des: computeeach op with %d charges, world %d", len(op.PerRank), w.Size()))
			}
			w.ComputeEach(func(r int) float64 { return op.PerRank[r] }, op.Category)
		case KindAllGather:
			if len(op.Sizes) == 1 {
				w.AllGatherUniform(op.Sizes[0], op.Category)
			} else {
				w.AllGather(op.Sizes, op.Category) // Exec rejects a length other than the world size
			}
		case KindAllReduce:
			w.AllReduce(op.Elems, op.Category)
		case KindReduceScatter:
			w.ReduceScatter(op.Elems, op.Category)
		case KindBroadcast:
			w.Broadcast(op.Bytes, op.Root, op.Category)
		case KindBarrier:
			w.Barrier()
		case KindSetStep:
			w.SetStep(op.Step)
		default:
			panic(fmt.Sprintf("des: unknown op kind %d", op.Kind))
		}
	}
}

// RunOnCluster replays the program on a live goroutine cluster: every
// worker executes the op list in SPMD lockstep, moving real (zero-filled)
// payloads through the rendezvous. Returns the workers in rank order.
func RunOnCluster(c *cluster.Cluster, prog Program) []*cluster.Worker {
	return c.Run(func(w *cluster.Worker) {
		p := c.Size()
		for _, op := range prog {
			switch op.Kind {
			case KindCompute:
				w.Compute(op.Seconds, op.Category)
			case KindComputeEach:
				if len(op.PerRank) != p {
					panic(fmt.Sprintf("des: computeeach op with %d charges, world %d", len(op.PerRank), p))
				}
				w.Compute(op.PerRank[w.Rank()], op.Category)
			case KindAllGather:
				w.AllGather(make([]byte, gatherSize(op, p, w.Rank())), op.Category)
			case KindAllReduce:
				w.AllReduce(make([]float64, op.Elems), op.Category)
			case KindReduceScatter:
				w.ReduceScatter(make([]float64, op.Elems), op.Category)
			case KindBroadcast:
				var payload []byte
				if w.Rank() == op.Root {
					payload = make([]byte, op.Bytes)
				}
				w.Broadcast(payload, op.Root, op.Category)
			case KindBarrier:
				w.Barrier()
			case KindSetStep:
				w.SetStep(op.Step)
			default:
				panic(fmt.Sprintf("des: unknown op kind %d", op.Kind))
			}
		}
	})
}
