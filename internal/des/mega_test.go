package des_test

import (
	"runtime"
	"testing"
	"time"

	"compso/internal/cluster"
	"compso/internal/des"
	"compso/internal/fault"
)

// TestMegaScaleAcceptance is the PR's headline acceptance criterion: an
// 8192-worker (2048-node) hierarchical COMPSO comm sweep — compressed
// gradient all-gathers, K-FAC covariance all-reduces, factor broadcasts,
// with straggler and link faults injected — must complete in well under
// 60 seconds and well under 4 GB, on the discrete-event engine whose
// small-world results the golden tests prove bit-identical to the
// goroutine engine.
func TestMegaScaleAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("mega-scale sweep skipped under the race detector (single-threaded loop, 10× instrumentation cost)")
	}
	const p = 8192
	cfg := cluster.Platform1() // GPUsPerNode = 4 → 2048 nodes
	cfg.Collective = "hierarchical"

	inj, err := fault.NewInjector(&fault.Plan{
		Seed:       23,
		Stragglers: []fault.Straggler{{Rank: 4097, Factor: 1.6, FromStep: 2}},
		Links: []fault.LinkFault{
			{SrcNode: -1, DstNode: -1, Link: "inter", BetaFactor: 1.2, Jitter: 0.05},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	const blob = 4 << 20 / 8 // ~0.5 MB compressed gradient per rank
	var prog des.Program
	for step := 0; step < 10; step++ {
		prog = append(prog,
			des.Op{Kind: des.KindSetStep, Step: step},
			des.Op{Kind: des.KindCompute, Seconds: 0.04, Category: "fwd-bwd"},
			des.Op{Kind: des.KindAllGather, Sizes: []int{blob}, Category: "grad-allgather"})
		if step%5 == 0 {
			prog = append(prog,
				des.Op{Kind: des.KindAllReduce, Elems: 1 << 22, Category: "kfac-allreduce"},
				des.Op{Kind: des.KindBroadcast, Bytes: 1 << 20, Category: "factor-bcast"})
		}
		prog = append(prog, des.Op{Kind: des.KindBarrier})
	}

	start := time.Now()
	w := des.NewWorld(cfg, p)
	defer w.Release()
	w.InjectFaults(inj)
	des.RunOnWorld(w, prog)
	elapsed := time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if elapsed > 60*time.Second {
		t.Fatalf("8192-rank sweep took %v, acceptance bound is 60s", elapsed)
	}
	const memBound = 4 << 30
	if grew := after.Sys - before.Sys; grew > memBound {
		t.Fatalf("8192-rank sweep grew runtime memory by %d MB, acceptance bound is 4096 MB", grew>>20)
	}
	if w.MaxTime() <= 0 || w.Collectives() == 0 || w.WireBytes() == 0 {
		t.Fatalf("sweep produced no results: time %v, %d collectives, %d wire bytes",
			w.MaxTime(), w.Collectives(), w.WireBytes())
	}
	foot := w.Footprint()
	if perWorker := float64(foot) / p; perWorker > 4096 {
		t.Fatalf("per-worker simulator state %d bytes, want well under 4 KB", int(perWorker))
	}
	t.Logf("8192 ranks, %d collectives, sim %.2fs, wall %v, %d B/worker",
		w.Collectives(), w.MaxTime(), elapsed.Round(time.Millisecond), foot/p)
}
