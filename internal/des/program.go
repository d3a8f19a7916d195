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
	// KindLaunch starts the collective Of (KindAllReduce or KindAllGather,
	// sized by Elems or Sizes) without waiting on it; ID names it.
	KindLaunch
	// KindWait settles every rank on launch ID, charging only what the
	// clocks have not already passed to the launch's category. Every launch
	// must be waited exactly once.
	KindWait
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
	// Of is the collective a KindLaunch starts.
	Of OpKind
	// ID pairs a KindLaunch with its KindWait; it may be reused once waited.
	ID int
}

// Program is a rank-agnostic SPMD communication trace: the same op list
// every rank executes in lockstep. It is the common language of the two
// execution engines — RunOnWorld replays it on the discrete-event engine,
// RunOnCluster on the goroutine engine — which is how the golden
// bit-identity tests compare them on identical workloads.
type Program []Op

// check panics, before anything runs, on per-rank charges or sizes that do
// not fit a world of p and on a broken launch/wait pairing: a launch of
// anything but an all-reduce or all-gather, one reissued before its wait,
// a wait with no launch, a second wait, or a launch never waited. It
// reports whether the program launches: such a program runs with its wire
// serialized, every collective queued behind those launched before it.
func (prog Program) check(p int) (launches bool) {
	open := map[int]bool{} // ID → launched and not yet waited
	for _, op := range prog {
		kind := op.Kind
		switch kind {
		case KindLaunch:
			if op.Of != KindAllReduce && op.Of != KindAllGather {
				panic(fmt.Sprintf("des: launch %d of op kind %d, want an all-reduce or all-gather", op.ID, op.Of))
			}
			if open[op.ID] {
				panic(fmt.Sprintf("des: launch %d reissued before its wait", op.ID))
			}
			open[op.ID], kind = true, op.Of
		case KindWait:
			pending, seen := open[op.ID]
			if !seen {
				panic(fmt.Sprintf("des: wait %d with no launch", op.ID))
			}
			if !pending {
				panic(fmt.Sprintf("des: launch %d waited twice", op.ID))
			}
			open[op.ID] = false
		case KindComputeEach:
			if len(op.PerRank) != p {
				panic(fmt.Sprintf("des: computeeach op with %d charges, world %d", len(op.PerRank), p))
			}
		}
		if n := len(op.Sizes); kind == KindAllGather && n != 1 && n != p {
			panic(fmt.Sprintf("des: allgather op with %d sizes, world %d", n, p))
		}
	}
	for id, pending := range open {
		if pending {
			panic(fmt.Sprintf("des: launch %d never waited", id))
		}
	}
	return len(open) > 0
}

// gatherSize returns rank's all-gather contribution.
func gatherSize(op Op, rank int) int {
	if len(op.Sizes) == 1 {
		return op.Sizes[0]
	}
	return op.Sizes[rank]
}

// engine is one time engine's side of a program: the World runs each op
// on every rank at once, a goroutine worker on its own rank.
type engine interface {
	setStep(it int)
	compute(op Op)
	barrier()
	// collective launches op's collective (a KindLaunch's Of, or op's own
	// kind) and returns its wait.
	collective(op Op) (wait func())
}

// run interprets prog on e; a blocking collective is waited at once.
func run(e engine, prog Program) {
	waits := map[int]func(){}
	for _, op := range prog {
		switch op.Kind {
		case KindSetStep:
			e.setStep(op.Step)
		case KindCompute, KindComputeEach:
			e.compute(op)
		case KindBarrier:
			e.barrier()
		case KindAllGather, KindAllReduce, KindReduceScatter, KindBroadcast:
			e.collective(op)()
		case KindLaunch:
			waits[op.ID] = e.collective(op)
		case KindWait:
			waits[op.ID]()
		default:
			panic(fmt.Sprintf("des: unknown op kind %d", op.Kind))
		}
	}
}

// RunOnWorld replays the program on a discrete-event world.
func RunOnWorld(w *World, prog Program) {
	w.serial = prog.check(w.Size())
	run(w, prog)
}

// RunOnCluster replays the program on a live goroutine cluster: every
// worker executes the op list in SPMD lockstep, moving real (zero-filled)
// payloads through the rendezvous and launching through the async
// handles. The cluster's wire is serialized exactly when the program
// launches, as on a World. Returns the workers in rank order.
//
// No program runs it: it exists only as the check that the goroutine
// engine and World charge a program alike (the golden bit-identity
// tests). It goes, with its worker adapter, once train.Run prices its
// steps on a World: the flip of ROADMAP.md's "One time engine", 11(b).
func RunOnCluster(c *cluster.Cluster, prog Program) []*cluster.Worker {
	c.SerializeWire(prog.check(c.Size()))
	return c.Run(func(w *cluster.Worker) { run(worker{w}, prog) })
}

// worker is one goroutine rank as a program engine.
type worker struct{ *cluster.Worker }

func (w worker) setStep(it int) { w.SetStep(it) }

func (w worker) compute(op Op) {
	if op.Kind == KindComputeEach {
		w.Compute(op.PerRank[w.Rank()], op.Category)
	} else {
		w.Compute(op.Seconds, op.Category)
	}
}

func (w worker) barrier() { w.Barrier() }

func (w worker) collective(op Op) func() {
	kind := op.Kind
	if kind == KindLaunch {
		kind = op.Of
	}
	switch kind {
	case KindAllReduce:
		h := w.AllReduceAsync(make([]float64, op.Elems), op.Category)
		return func() { h.Wait() }
	case KindAllGather:
		h := w.AllGatherAsync(make([]byte, gatherSize(op, w.Rank())), op.Category)
		return func() { h.Wait() }
	case KindReduceScatter:
		w.ReduceScatter(make([]float64, op.Elems), op.Category)
	default:
		var payload []byte
		if w.Rank() == op.Root {
			payload = make([]byte, op.Bytes)
		}
		w.Broadcast(payload, op.Root, op.Category)
	}
	return func() {}
}
