package des_test

import (
	"fmt"
	"testing"

	"compso/internal/cluster"
	"compso/internal/collective"
	"compso/internal/des"
	"compso/internal/fault"
	"compso/internal/obs"
)

// goldenProgram is a representative COMPSO-shaped comm trace: three
// training steps of compute, a compressed-gradient all-gather with
// non-uniform per-rank blob sizes, K-FAC covariance all-reduces, a
// reduce-scatter with a non-divisible element count (remainder shard),
// an inverse-factor broadcast, and a barrier. Sizes are deliberately
// awkward (odd, non-power-of-two) to exercise schedule edge cases.
func goldenProgram(p int) des.Program {
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
			des.Op{Kind: des.KindCompute, Seconds: 0.004, Category: "fwd-bwd"},
			des.Op{Kind: des.KindAllGather, Sizes: sizes, Category: "grad-gather"},
			des.Op{Kind: des.KindAllReduce, Elems: 1531, Category: "kfac-cov"},
			des.Op{Kind: des.KindComputeEach, PerRank: perRank, Category: "kfac-inv"},
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
// policy, fault plan and goroutine-side trace switch in the matrix, a
// traced World must reproduce the goroutine engine's results bit-for-bit —
// per-rank simulated times, per-category stats, per-algorithm attribution,
// schedule seconds, wire bytes and collective count, and with the
// goroutine side traced, its event traces. The untraced cells pin that
// events only record and never steer: the goroutine engine then retains
// none, and every number still matches.
func TestGoldenBitIdentity(t *testing.T) {
	worlds := []int{2, 3, 5, 8, 16}
	policies := []string{"auto", collective.AlgRing, collective.AlgRecursiveDoubling,
		collective.AlgBinomial, collective.AlgHierarchical}
	for _, p := range worlds {
		for _, policy := range policies {
			for planName, plan := range goldenFaultPlans(p) {
				for _, traced := range []bool{true, false} {
					name := fmt.Sprintf("p=%d/%s/%s", p, policy, planName)
					if !traced {
						name += "/untraced"
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						goldenCell(t, p, policy, plan, traced)
					})
				}
			}
		}
	}
}

func goldenCell(t *testing.T, p int, policy string, plan *fault.Plan, traced bool) {
	cfg := cluster.Platform1()
	cfg.Collective = policy
	prog := goldenProgram(p)

	// Goroutine reference engine, with a recorder so the canonical
	// wire-byte counter is comparable.
	c := cluster.New(cfg, p)
	c.SetTracing(traced)
	c.InjectFaults(injectorFor(t, plan))
	rec := obs.NewRecorder()
	c.Observe(rec)
	workers := des.RunOnCluster(c, prog)
	ref := workers[0].Ledger()

	// Discrete-event engine.
	w := des.NewWorld(cfg, p)
	defer w.Release()
	w.SetTracing(true)
	w.InjectFaults(injectorFor(t, plan))
	des.RunOnWorld(w, prog)

	for r := 0; r < p; r++ {
		if got, want := w.TimeOf(r), workers[r].Time(); got != want {
			t.Errorf("rank %d: Time = %v, goroutine engine %v", r, got, want)
		}
		compareMaps(t, fmt.Sprintf("rank %d stats", r), w.StatsOf(r), workers[r].Stats())
		compareMaps(t, fmt.Sprintf("rank %d algseconds", r), w.AlgSecondsOf(r), workers[r].AlgSeconds())
		if !traced {
			if n := ref.TotalEventsOf(r); n != 0 {
				t.Errorf("rank %d: untraced goroutine engine retained %d events", r, n)
			}
			continue
		}
		if got, want := w.TotalEventsOf(r), ref.TotalEventsOf(r); got != want {
			t.Errorf("rank %d: TotalEvents = %d, goroutine engine %d", r, got, want)
		}
		compareEvents(t, r, w.EventsOf(r), ref.EventsOf(r))
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

func compareEvents(t *testing.T, rank int, got, want []collective.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("rank %d: %d trace events, goroutine engine %d", rank, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("rank %d event %d: %+v, goroutine engine %+v", rank, i, got[i], want[i])
			return
		}
	}
}

// TestGoldenPlatform2 repeats a slice of the matrix on the second
// platform model so both fabric parameterizations are covered.
func TestGoldenPlatform2(t *testing.T) {
	for _, p := range []int{3, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			cfg := cluster.Platform2()
			prog := goldenProgram(p)
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
