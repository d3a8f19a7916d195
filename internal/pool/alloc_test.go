//go:build !race

package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

type sumTask struct{ parts [8]atomic.Int64 }

func (s *sumTask) Run(i int) { s.parts[i].Add(int64(i)) }

// TestDoDispatchAllocatesNothing: once the helpers exist, handing parts of a
// Task to them costs no allocation. (Excluded under -race: the detector's
// instrumentation skews alloc counts.)
func TestDoDispatchAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	task := &sumTask{}
	Do(8, 0, task) // start the helper, warm the job pool
	if allocs := testing.AllocsPerRun(200, func() { Do(8, 0, task) }); allocs != 0 {
		t.Fatalf("Do: %.2f allocs per call, want 0", allocs)
	}
}
