package des_test

import (
	"fmt"
	"strings"
	"testing"

	"compso/internal/cluster"
	"compso/internal/des"
	"compso/internal/fault"
)

func TestWorldBasics(t *testing.T) {
	w := des.NewWorld(cluster.Platform1(), 8)
	defer w.Release()

	des.RunOnWorld(w, des.Program{{Kind: des.KindCompute, Seconds: 0.5, Category: "fwd"}})
	for r := 0; r < 8; r++ {
		if got := w.TimeOf(r); got != 0.5 {
			t.Fatalf("rank %d time after compute = %v, want 0.5", r, got)
		}
	}
	des.RunOnWorld(w, des.Program{{Kind: des.KindAllReduce, Elems: 1000, Category: "sync"}})
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
	des.RunOnWorld(w, des.Program{
		{Kind: des.KindComputeEach, PerRank: []float64{1, 2, 3, 4}, Category: "work"},
		{Kind: des.KindBarrier},
	})
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
	des.RunOnWorld(w, des.Program{{Kind: des.KindSetStep}, {Kind: des.KindCompute, Seconds: 1, Category: "work"}})
	if got := w.TimeOf(1); got != 2 {
		t.Fatalf("straggler rank time = %v, want 2", got)
	}
	if got := w.TimeOf(0); got != 1 {
		t.Fatalf("healthy rank time = %v, want 1", got)
	}
}

func TestWorldReleaseIdempotent(t *testing.T) {
	w := des.NewWorld(cluster.Platform1(), 4)
	sync := des.Program{{Kind: des.KindAllReduce, Elems: 100, Category: "sync"}}
	des.RunOnWorld(w, sync)
	w.Release()
	w.Release() // second release must be a no-op

	defer func() {
		if recover() == nil {
			t.Fatal("collective on a released world should panic")
		}
	}()
	des.RunOnWorld(w, sync)
}

// TestProgramValidation: a malformed program panics before any clock
// moves, on either engine — per-rank sizes that do not fit the world, and
// every way a launch/wait pairing can break.
func TestProgramValidation(t *testing.T) {
	compute := des.Op{Kind: des.KindCompute, Seconds: 1, Category: "x"}
	launch := des.Op{Kind: des.KindLaunch, Of: des.KindAllReduce, Elems: 8, ID: 3, Category: "x"}
	wait := des.Op{Kind: des.KindWait, ID: 3}
	for _, c := range []struct {
		name string
		prog des.Program
		want string
	}{
		{"mismatched sizes", des.Program{compute, {Kind: des.KindAllGather, Sizes: []int{1, 2, 3}, Category: "x"}}, "des: allgather op with 3 sizes, world 4"},
		{"mismatched charges", des.Program{compute, {Kind: des.KindComputeEach, PerRank: []float64{1}, Category: "x"}}, "des: computeeach op with 1 charges, world 4"},
		{"wait without launch", des.Program{compute, wait}, "des: wait 3 with no launch"},
		{"double wait", des.Program{compute, launch, wait, wait}, "des: launch 3 waited twice"},
		{"never waited", des.Program{compute, launch}, "des: launch 3 never waited"},
		{"reissued", des.Program{compute, launch, launch, wait}, "des: launch 3 reissued before its wait"},
		{"not a collective", des.Program{compute, {Kind: des.KindLaunch, Of: des.KindBarrier, ID: 3}, wait}, "des: launch 3 of op kind"},
	} {
		w := des.NewWorld(cluster.Platform1(), 4)
		for engine, run := range map[string]func(){
			"world": func() { des.RunOnWorld(w, c.prog) },
			// The goroutine engine panics on the caller, before any worker
			// starts.
			"cluster": func() { des.RunOnCluster(cluster.New(cluster.Platform1(), 4), c.prog) },
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				run()
				return ""
			}()
			if !strings.Contains(msg, c.want) {
				t.Errorf("%s on %s: panic %q, want one containing %q", c.name, engine, msg, c.want)
			}
		}
		if w.MaxTime() != 0 || w.Collectives() != 0 {
			t.Errorf("%s: clocks moved to %v before the panic", c.name, w.MaxTime())
		}
		w.Release()
	}
}
