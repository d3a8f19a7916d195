//go:build !race

package collective

import (
	"runtime"
	"testing"
)

// TestExecAllocationIndependentOfTransfers guards the streamed-step
// contract at scale: a hierarchical all-reduce at P=1024 schedules ~200k
// leader-ring transfers, and with event retention off none of them may
// reach the allocator — a collective costs a fixed handful of allocations
// (the Ends vector, the sim, the Outcome, pool boxes, one chunk table) and
// bytes linear in P, whatever the schedule's length. (Excluded under -race:
// there sync.Pool drops a share of its Puts, so pooled scratch is
// re-allocated at random.)
func TestExecAllocationIndependentOfTransfers(t *testing.T) {
	for _, p := range []int{256, 1024} {
		e := forcedEngine(t, p, AlgHierarchical)
		e.SetEventRetention(false)
		starts := make([]float64, p)
		gather := make([]int, p)
		for r := range gather {
			gather[r] = 4096 + r%7
		}
		for _, c := range []struct {
			op    string
			sizes []int
		}{{OpAllReduce, []int{1 << 22}}, {OpAllGather, gather}} {
			run := func() { e.Exec(c.op, c.sizes, 0, starts) }
			run() // the first call also dry-runs the prediction seed
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, run)
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one warm-up call besides the measured runs.
			bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			if allocs > 8 {
				t.Errorf("%s P=%d: %.0f allocations per collective, want ≤ 8", c.op, p, allocs)
			}
			if limit := uint64(16*p + 4096); bytes > limit {
				t.Errorf("%s P=%d: %d bytes per collective, want ≤ 16·P + 4096 = %d", c.op, p, bytes, limit)
			}
		}
	}
}
