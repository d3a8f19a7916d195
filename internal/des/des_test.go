package des_test

import (
	"testing"

	"compso/internal/cluster"
	"compso/internal/collective"
	"compso/internal/des"
	"compso/internal/fault"
)

func TestWorldBasics(t *testing.T) {
	w := des.NewWorld(cluster.Platform1(), 8)
	defer w.Release()

	w.Compute(0.5, "fwd")
	for r := 0; r < 8; r++ {
		if got := w.TimeOf(r); got != 0.5 {
			t.Fatalf("rank %d time after compute = %v, want 0.5", r, got)
		}
	}
	w.AllReduce(1000, "sync")
	if w.MaxTime() <= 0.5 {
		t.Fatalf("all-reduce did not advance clocks: %v", w.MaxTime())
	}
	if got := w.WireBytes(); got != 4000 {
		t.Fatalf("WireBytes = %d, want 4000", got)
	}
	if got := w.Collectives(); got != 1 {
		t.Fatalf("Collectives = %d, want 1", got)
	}
	stats := w.StatsOf(0)
	if stats["fwd"] != 0.5 {
		t.Fatalf("stats[fwd] = %v, want 0.5", stats["fwd"])
	}
	if stats["sync"] <= 0 {
		t.Fatalf("stats[sync] = %v, want > 0", stats["sync"])
	}
	if len(w.AlgSecondsOf(0)) == 0 {
		t.Fatal("no per-algorithm attribution recorded")
	}
	meas, pred := w.ScheduleSeconds()
	if meas <= 0 || pred <= 0 {
		t.Fatalf("ScheduleSeconds = (%v, %v), want positive", meas, pred)
	}
	if w.Footprint() <= 0 {
		t.Fatalf("Footprint = %d, want > 0", w.Footprint())
	}
}

func TestWorldBarrier(t *testing.T) {
	w := des.NewWorld(cluster.Platform1(), 4)
	defer w.Release()
	w.ComputeEach(func(r int) float64 { return float64(r + 1) }, "work")
	w.Barrier()
	for r := 0; r < 4; r++ {
		if got := w.TimeOf(r); got != 4 {
			t.Fatalf("rank %d time after barrier = %v, want 4", r, got)
		}
	}
	if got := w.StatsOf(0)["barrier"]; got != 3 {
		t.Fatalf("rank 0 barrier charge = %v, want 3", got)
	}
	if _, ok := w.StatsOf(3)["barrier"]; ok {
		t.Fatal("slowest rank should have no barrier charge")
	}
}

func TestWorldStragglerFaults(t *testing.T) {
	inj, err := fault.NewInjector(&fault.Plan{
		Seed:       3,
		Stragglers: []fault.Straggler{{Rank: 1, Factor: 2, FromStep: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := des.NewWorld(cluster.Platform1(), 4)
	defer w.Release()
	w.InjectFaults(inj)
	w.SetStep(0)
	w.Compute(1, "work")
	if got := w.TimeOf(1); got != 2 {
		t.Fatalf("straggler rank time = %v, want 2", got)
	}
	if got := w.TimeOf(0); got != 1 {
		t.Fatalf("healthy rank time = %v, want 1", got)
	}
}

func TestWorldTracing(t *testing.T) {
	w := des.NewWorld(cluster.Platform1(), 4)
	defer w.Release()
	if evs := w.EventsOf(0); evs != nil {
		t.Fatalf("events retained with tracing off: %d", len(evs))
	}
	w.SetTracing(true)
	w.AllGatherUniform(1024, "gather")
	if w.TotalEventsOf(0) == 0 {
		t.Fatal("no events retained with tracing on")
	}
	if len(w.EventsOf(0)) != int(w.TotalEventsOf(0)) {
		t.Fatalf("EventsOf len %d != TotalEvents %d (under ring cap)",
			len(w.EventsOf(0)), w.TotalEventsOf(0))
	}
}

func TestWorldReleaseIdempotent(t *testing.T) {
	w := des.NewWorld(cluster.Platform1(), 4)
	w.AllReduce(100, "sync")
	w.Release()
	w.Release() // second release must be a no-op

	defer func() {
		if recover() == nil {
			t.Fatal("collective on a released world should panic")
		}
	}()
	w.AllReduce(100, "sync")
}

func TestProgramValidation(t *testing.T) {
	w := des.NewWorld(cluster.Platform1(), 4)
	defer w.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched per-rank sizes should panic")
		}
	}()
	des.RunOnWorld(w, des.Program{{Kind: des.KindAllGather, Sizes: []int{1, 2, 3}, Category: "x"}})
}

// TestWorldTracingMatchesEventsFor: exec files each event under its
// endpoints in one walk of Outcome.Events; the reference is the per-rank
// Outcome.EventsFor scan the goroutine engine's workers use, replayed on a
// second engine from the same clocks. Enough hierarchical all-reduces run at
// P=256 for the leaders' rings to evict, and an analytic world covers the
// summary event every rank sees.
func TestWorldTracingMatchesEventsFor(t *testing.T) {
	for _, tc := range []struct {
		policy  string
		p, reps int
	}{{"hierarchical", 256, 20}, {"analytic", 8, 3}} {
		cfg := cluster.Platform1()
		cfg.Collective = tc.policy
		w := des.NewWorld(cfg, tc.p)
		w.SetTracing(true)
		ref := cluster.EngineFor(cfg, tc.p)
		clocks := make([]float64, tc.p)
		want := make([][]collective.Event, tc.p)
		exec := func(op string, sizes []int, root int) {
			out := ref.Exec(op, sizes, root, clocks)
			for r := range clocks {
				want[r] = append(want[r], out.EventsFor(r)...)
				clocks[r] = max(clocks[r], out.Ends[r])
			}
		}
		sizes := make([]int, tc.p)
		for r := range sizes {
			sizes[r] = 700 + 13*(r%5)
		}
		for i := 0; i < tc.reps; i++ {
			w.AllReduce(1531, "cov")
			exec(collective.OpAllReduce, []int{4 * 1531}, 0)
			w.AllGather(sizes, "gather")
			exec(collective.OpAllGather, sizes, 0)
			w.Broadcast(4096, tc.p-1, "bcast")
			exec(collective.OpBroadcast, []int{4096}, tc.p-1)
		}
		evicted := false
		for r := 0; r < tc.p; r++ {
			if got := w.TotalEventsOf(r); got != int64(len(want[r])) {
				t.Fatalf("%s rank %d: TotalEventsOf = %d, EventsFor reference %d", tc.policy, r, got, len(want[r]))
			}
			tail := want[r]
			if len(tail) > cluster.TraceCap {
				tail, evicted = tail[len(tail)-cluster.TraceCap:], true
			}
			got := w.EventsOf(r)
			if len(got) != len(tail) {
				t.Fatalf("%s rank %d: %d retained events, reference %d", tc.policy, r, len(got), len(tail))
			}
			for i := range got {
				if got[i] != tail[i] {
					t.Fatalf("%s rank %d event %d: %+v, reference %+v", tc.policy, r, i, got[i], tail[i])
				}
			}
		}
		if tc.policy == "hierarchical" && !evicted {
			t.Fatal("no rank's ring evicted; raise reps")
		}
		w.Release()
	}
}
