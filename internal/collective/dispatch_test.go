package collective

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"compso/internal/pool"
)

// TestPredictionIgnoresPlacement: a dispatch that misses the seed memo runs
// the prediction's dry run beside the executed schedule, on an idle pool
// helper when there is one and after it on the caller when there is none.
// Where it ran must not show: every Outcome (Predicted included) and every
// memo entry are the same bits with a helper idle, with every helper busy
// and at GOMAXPROCS 1. Each forced-policy engine dispatches a cell twice (a
// miss, then a memo hit) and an autotuning engine once.
func TestPredictionIgnoresPlacement(t *testing.T) {
	var cells []goldenCell
	for _, c := range goldenCells() {
		if c.p == 5 || c.p == 64 {
			cells = append(cells, c)
		}
	}
	run := func() []string {
		var recs []string
		for _, c := range cells {
			for _, policy := range []string{c.alg, "auto"} {
				topo := testTopology(c.p)
				topo.GPUsPerNode = c.g
				e, err := NewEngine(topo, policy)
				if err != nil {
					t.Fatal(err)
				}
				if c.pert {
					e.SetPerturber(goldenPerturber{})
				}
				e.SetEventRetention(false)
				for rep := 0; rep < 2 && (rep == 0 || policy != "auto"); rep++ {
					out := e.Exec(c.op, goldenSizes(c.op, c.kind, c.p), c.root, goldenStarts(c.p))
					recs = append(recs, c.key+" "+policy+" "+goldenRecord(out))
				}
				recs = append(recs, c.key+" "+policy+" memo "+seedRecord(e))
			}
		}
		return recs
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	helper := run()
	var busy []string
	withBusyHelpers(t, func() { busy = run() })
	runtime.GOMAXPROCS(1)
	serial := run()
	for i := range helper {
		if busy[i] != helper[i] || serial[i] != helper[i] {
			t.Fatalf("record %d differs by placement:\n helper %s\n busy   %s\n serial %s", i, helper[i], busy[i], serial[i])
		}
	}
}

// seedRecord renders an engine's seed memo, its keys in order and each
// makespan's bits.
func seedRecord(e *Engine) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var lines []string
	for k, v := range e.tuner.seeds {
		lines = append(lines, fmt.Sprintf("%s/%s/%016x=%016x", k.op, k.alg, k.sizes, math.Float64bits(v)))
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}

// withBusyHelpers runs f while every pool helper is parked in a part of
// another Do, so each of f's dispatches runs its dry run on the caller. It
// fans out on every CPU, which starts or claims each helper the process has
// (their number is the largest GOMAXPROCS−1 it ran with, at most NumCPU−1
// here), and waits until every part has begun.
func withBusyHelpers(t *testing.T, f func()) {
	w := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(w)
	var started sync.WaitGroup
	started.Add(w)
	release, done := make(chan struct{}), make(chan struct{})
	go func() {
		pool.ParallelFor(w, w, func(int) {
			started.Done()
			<-release
		})
		close(done)
	}()
	defer func() {
		close(release)
		<-done
	}()
	all := make(chan struct{})
	go func() {
		started.Wait()
		close(all)
	}()
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		t.Fatal("the pool's helpers did not all take a part of the parking fan-out")
	}
	runtime.GOMAXPROCS(prev)
	f()
}
