package cluster

import (
	"fmt"

	"compso/internal/fault"
)

// Worker-loss semantics. A crash is a goroutine-level death: the victim
// poisons the cluster's rendezvous and panics with *CrashPanic. Every
// survivor discovers the loss at its next synchronization point — a
// collective entry, a rendezvous wait, or a blocked SendRecv — and unwinds
// with *LostPanic, modeling the bounded collective timeout real NCCL-style
// stacks use for peer-loss detection. The training driver catches both
// panic kinds at the top of each worker goroutine, converts them to a
// *WorkerLost error, discards the poisoned cluster, and restarts every
// rank from the last checkpoint on a fresh one.
//
// A poisoned cluster stays poisoned: no collective can complete on it
// again, which is what guarantees no survivor is left blocked forever and
// no half-combined collective result is ever observed.

// CrashPanic is the panic value the crashing worker dies with.
type CrashPanic struct {
	Rank  int
	Step  int
	Point string
}

func (p *CrashPanic) String() string {
	return fmt.Sprintf("worker %d crashed at step %d (%s)", p.Rank, p.Step, p.Point)
}

// LostPanic is the panic value surviving workers unwind with when they
// detect a crashed peer at a synchronization point.
type LostPanic struct {
	Rank  int // the crashed peer
	Step  int // the step the peer crashed at
	Point string
}

func (p *LostPanic) String() string {
	return fmt.Sprintf("peer %d lost at step %d (%s)", p.Rank, p.Step, p.Point)
}

// WorkerLost is the error a worker-loss unwind converts to at the training
// driver level.
type WorkerLost struct {
	Rank  int
	Step  int
	Point string
}

func (e *WorkerLost) Error() string {
	return fmt.Sprintf("cluster: worker %d lost at step %d (%s)", e.Rank, e.Step, e.Point)
}

// SetIncarnation records which restart attempt this cluster serves
// (0 for the first run, incremented per checkpoint recovery). Crash
// verdicts key on it so a restored run does not re-crash forever at the
// same replayed step.
func (c *Cluster) SetIncarnation(n int) { c.incarnation = n }

// Incarnation returns the cluster's restart attempt number.
func (c *Cluster) Incarnation() int { return c.incarnation }

// Crash kills this worker at the given point: it goes Down and panics
// with *CrashPanic. It never returns.
func (w *Worker) Crash(point string) {
	w.Down(point)
	panic(&CrashPanic{Rank: w.rank, Step: w.step, Point: point})
}

// Down takes this worker out of the cluster's collectives without
// unwinding it: it poisons the rendezvous (waking and unwinding all
// blocked peers) and closes the peer-loss channel for blocked SendRecv
// partners. A worker that leaves its program early — a crash, or a step
// that failed with an error — calls it so that no peer waits for it
// forever.
func (w *Worker) Down(point string) {
	c := w.cluster
	c.rv.poison(w.rank, w.step, point)
	c.downOnce.Do(func() { close(c.downCh) })
}

// CrashDue reports whether the fault plan kills this worker during the
// current step of the cluster's incarnation, and at which point. The
// training loop acts on step-start and mid-step verdicts; mid-collective
// verdicts fire inside enterCollective.
func (w *Worker) CrashDue() (fault.CrashPoint, bool) {
	return w.cluster.faults.ShouldCrash(w.rank, w.step, w.cluster.incarnation)
}

// enterCollective is the choke point every collective entry (blocking or
// async launch, barrier included) passes through: it counts the step's
// collective entries, fires a scheduled mid-collective crash on the
// selected entry, and fails fast — before touching the rendezvous — when a
// peer is already down.
func (w *Worker) enterCollective() {
	c := w.cluster
	if down, p := c.rv.poisoned(); down {
		panic(p)
	}
	w.collSeq++
	if c.faults == nil {
		return
	}
	pt, ok := c.faults.ShouldCrash(w.rank, w.step, c.incarnation)
	if ok && pt == fault.CrashMidCollective &&
		w.collSeq == c.faults.CrashCollectiveSite(w.rank, w.step, c.incarnation) {
		w.Crash(pt.String())
	}
}
