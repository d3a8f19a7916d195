package des_test

import (
	"fmt"
	"testing"
	_ "unsafe" // for go:linkname

	"compso/internal/cluster"
	"compso/internal/collective"
	"compso/internal/cpu"
	"compso/internal/des"
	"compso/internal/fault"
	"compso/internal/obs"
)

// ringAVX is collective's useAVX, the switch between its ring step's AVX
// kernel and its portable loop, which the package keeps unexported.
//
//go:linkname ringAVX compso/internal/collective.useAVX
var ringAVX bool

// goldenProgram is a representative COMPSO-shaped comm trace: three
// training steps of compute, a compressed-gradient all-gather with
// non-uniform per-rank blob sizes, K-FAC covariance all-reduces, a
// reduce-scatter with a non-divisible element count (remainder shard),
// an inverse-factor broadcast, and a barrier. Sizes are deliberately
// awkward (odd, non-power-of-two) to exercise schedule edge cases. With
// launchWait the all-gather and the all-reduce are launched back to back,
// stay in flight over the per-rank compute, and are waited out of launch
// order.
func goldenProgram(p int, launchWait bool) des.Program {
	var prog des.Program
	perRank := make([]float64, p)
	for r := range perRank {
		perRank[r] = 0.0015 + 0.0001*float64(r%5)
	}
	for step := 0; step < 3; step++ {
		sizes := make([]int, p)
		for r := range sizes {
			sizes[r] = 900 + 137*((r+step)%7)
		}
		prog = append(prog,
			des.Op{Kind: des.KindSetStep, Step: step},
			des.Op{Kind: des.KindCompute, Seconds: 0.004, Category: "fwd-bwd"})
		if launchWait {
			prog = append(prog,
				des.Op{Kind: des.KindLaunch, Of: des.KindAllGather, ID: 0, Sizes: sizes, Category: "grad-gather"},
				des.Op{Kind: des.KindLaunch, Of: des.KindAllReduce, ID: 1, Elems: 1531, Category: "kfac-cov"},
				des.Op{Kind: des.KindComputeEach, PerRank: perRank, Category: "kfac-inv"},
				des.Op{Kind: des.KindWait, ID: 1},
				des.Op{Kind: des.KindWait, ID: 0})
		} else {
			prog = append(prog,
				des.Op{Kind: des.KindAllGather, Sizes: sizes, Category: "grad-gather"},
				des.Op{Kind: des.KindAllReduce, Elems: 1531, Category: "kfac-cov"},
				des.Op{Kind: des.KindComputeEach, PerRank: perRank, Category: "kfac-inv"})
		}
		prog = append(prog,
			des.Op{Kind: des.KindReduceScatter, Elems: 2003, Category: "grad-rs"},
			des.Op{Kind: des.KindBroadcast, Bytes: 4096 + 321*step, Root: step % p, Category: "factor-bcast"},
			des.Op{Kind: des.KindBarrier},
		)
	}
	return prog
}

// goldenFaultPlans returns the fault scenarios of the golden matrix.
// Plans are rebuilt per invocation so each engine gets its own injector.
func goldenFaultPlans(p int) map[string]*fault.Plan {
	return map[string]*fault.Plan{
		"none": nil,
		"straggler": {
			Seed: 7,
			Stragglers: []fault.Straggler{
				{Rank: p - 1, Factor: 1.8, FromStep: 1, ToStep: 3},
				{Rank: 0, Factor: 1.2, FromStep: 0},
			},
		},
		"linkfault": {
			Seed: 11,
			Links: []fault.LinkFault{
				{SrcNode: -1, DstNode: -1, Link: "inter", AlphaFactor: 1.5, BetaFactor: 2.0, Jitter: 0.2},
				{SrcNode: 0, DstNode: 0, Link: "intra", BetaFactor: 1.3, Jitter: 0.1},
			},
		},
	}
}

func injectorFor(t *testing.T, plan *fault.Plan) *fault.Injector {
	t.Helper()
	if plan == nil {
		return nil
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return inj
}

// TestGoldenBitIdentity is the golden contract of the discrete-event
// engine: for every world size (including non-power-of-two), collective
// policy, fault plan, goroutine-side trace switch and program shape
// (blocking, or with two collectives in flight) in the matrix, a World
// must reproduce the goroutine engine's results bit-for-bit — per-rank
// simulated times, per-category stats, per-algorithm attribution, schedule
// seconds, wire bytes and collective count, and on the launch/wait cells
// the exposure (OverlapOf). The goroutine side is traced by a recorder
// that asks for transfer spans, so its engine retains every scheduled
// transfer; the untraced cells record none. Both pin that events only
// record and never steer: every number matches either way.
func TestGoldenBitIdentity(t *testing.T) { goldenMatrix(t) }

// TestGoldenBitIdentityPortable runs the matrix again with collective's
// ring steps on the portable loop; TestGoldenBitIdentity runs them on the
// AVX kernel wherever the host has one.
func TestGoldenBitIdentityPortable(t *testing.T) {
	if !cpu.HasAVX {
		t.Skip("no AVX kernel on this host: TestGoldenBitIdentity ran the portable loop")
	}
	saved := ringAVX
	ringAVX = false
	t.Cleanup(func() { ringAVX = saved }) // after the parallel cells, unlike a defer
	goldenMatrix(t)
}

func goldenMatrix(t *testing.T) {
	worlds := []int{2, 3, 5, 8, 16}
	policies := []string{"auto", collective.AlgRing, collective.AlgRecursiveDoubling,
		collective.AlgBinomial, collective.AlgHierarchical}
	for _, p := range worlds {
		for _, policy := range policies {
			for planName, plan := range goldenFaultPlans(p) {
				for _, traced := range []bool{true, false} {
					for _, launchWait := range []bool{false, true} {
						name := fmt.Sprintf("p=%d/%s/%s", p, policy, planName)
						if !traced {
							name += "/untraced"
						}
						if launchWait {
							name += "/launch-wait"
						}
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							goldenCell(t, p, policy, plan, traced, launchWait)
						})
					}
				}
			}
		}
	}
}

func goldenCell(t *testing.T, p int, policy string, plan *fault.Plan, traced, launchWait bool) {
	cfg := cluster.Platform1()
	cfg.Collective = policy
	prog := goldenProgram(p, launchWait)

	// Goroutine reference engine, with a recorder so the canonical
	// wire-byte counter is comparable.
	c := cluster.New(cfg, p)
	c.InjectFaults(injectorFor(t, plan))
	rec := obs.NewRecorder(obs.WithTransferSpans(traced))
	c.Observe(rec)
	workers := des.RunOnCluster(c, prog)
	ref := workers[0].Ledger()

	// Discrete-event engine.
	w := des.NewWorld(cfg, p)
	defer w.Release()
	w.InjectFaults(injectorFor(t, plan))
	des.RunOnWorld(w, prog)

	for r := 0; r < p; r++ {
		if got, want := w.TimeOf(r), workers[r].Time(); got != want {
			t.Errorf("rank %d: Time = %v, goroutine engine %v", r, got, want)
		}
		compareMaps(t, fmt.Sprintf("rank %d stats", r), w.StatsOf(r), workers[r].Stats())
		compareMaps(t, fmt.Sprintf("rank %d algseconds", r), w.AlgSecondsOf(r), workers[r].AlgSeconds())
		if launchWait {
			exposed, total := w.OverlapOf(r)
			refExposed, refTotal := workers[r].OverlapStats()
			if exposed != refExposed || total != refTotal || total <= exposed {
				t.Errorf("rank %d: OverlapOf = (%v, %v), goroutine engine (%v, %v); want equal, with some latency hidden",
					r, exposed, total, refExposed, refTotal)
			}
		}
	}
	transfers := 0
	for _, sp := range rec.Snapshot().Spans {
		if sp.Cat == obs.CatTransfer {
			transfers++
		}
	}
	if traced != (transfers > 0) {
		t.Errorf("traced=%v: the goroutine engine recorded %d transfer spans", traced, transfers)
	}
	meas, pred := w.ScheduleSeconds()
	refMeas, refPred := ref.ScheduleSeconds()
	if meas != refMeas || pred != refPred {
		t.Errorf("ScheduleSeconds = (%v, %v), goroutine engine (%v, %v)", meas, pred, refMeas, refPred)
	}
	if w.WireBytes() != ref.WireBytes() || w.Collectives() != ref.Collectives() {
		t.Errorf("WireBytes, Collectives = %d, %d; goroutine engine %d, %d",
			w.WireBytes(), w.Collectives(), ref.WireBytes(), ref.Collectives())
	}
	if got, want := float64(w.WireBytes()), rec.Counter("wire/total/bytes").Value(); got != want {
		t.Errorf("WireBytes = %v, goroutine engine counter %v", got, want)
	}
}

func compareMaps(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s[%q] = %v, goroutine engine %v", what, k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s has extra key %q = %v", what, k, got[k])
		}
	}
}

// TestGoldenPlatform2 repeats a slice of the matrix on the second
// platform model so both fabric parameterizations are covered.
func TestGoldenPlatform2(t *testing.T) {
	for _, p := range []int{3, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			cfg := cluster.Platform2()
			prog := goldenProgram(p, false)
			c := cluster.New(cfg, p)
			workers := des.RunOnCluster(c, prog)
			w := des.NewWorld(cfg, p)
			defer w.Release()
			des.RunOnWorld(w, prog)
			for r := 0; r < p; r++ {
				if got, want := w.TimeOf(r), workers[r].Time(); got != want {
					t.Errorf("rank %d: Time = %v, goroutine engine %v", r, got, want)
				}
			}
		})
	}
}
