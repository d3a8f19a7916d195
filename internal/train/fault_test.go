package train

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"compso/internal/compress"
	"compso/internal/fault"
	"compso/internal/kfac"
	"compso/internal/obs"
)

// chaosPlan is a hot everything-at-once scenario for the recovery tests.
func chaosPlan() *fault.Plan {
	return &fault.Plan{
		Seed:       21,
		Stragglers: []fault.Straggler{{Rank: 1, Factor: 2, FromStep: 1}},
		Links: []fault.LinkFault{{
			SrcNode: -1, DstNode: -1, Link: "inter",
			AlphaFactor: 2.5, BetaFactor: 1.5, Jitter: 0.2,
		}},
		Corruption: fault.Corruption{Rate: 1, BitFlips: 5},
		MaxRetries: 1,
		Guard:      fault.Guard{Ratio: 1.2, Patience: 2},
	}
}

func faultedConfig(iters int, rec *obs.Recorder) Config {
	cfg := baseConfig(iters)
	cfg.Workers = 4
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.NewCompressor = func(rank int) compress.Compressor {
		return compress.NewCOMPSO(int64(rank) + 1)
	}
	cfg.AggregationM = 2
	cfg.Obs = rec
	cfg.Fault = chaosPlan()
	return cfg
}

// canonicalSpans sorts a snapshot's spans into a scheduling-independent
// order for bit-identity comparison: concurrent worker goroutines append
// spans in nondeterministic order even when every span is identical.
func canonicalSpans(spans []obs.Span) []obs.Span {
	out := append([]obs.Span(nil), spans...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Attrs.Peer != b.Attrs.Peer {
			return a.Attrs.Peer < b.Attrs.Peer
		}
		return a.Attrs.Label < b.Attrs.Label
	})
	return out
}

// faultedRun is faultedConfig(6)'s run, once per test binary: the first of
// TestFaultedRunIsDeterministic's two runs and TestCorruptionRecoveryKFAC's
// one.
var faultedRun = sync.OnceValues(func() (*Result, error) {
	return Run(faultedConfig(6, obs.NewRecorder()))
})

// TestFaultedRunIsDeterministic pins the determinism contract end to end:
// identical seeds and fault plans produce bit-identical results and
// (canonicalized) traces across two runs.
func TestFaultedRunIsDeterministic(t *testing.T) {
	t.Parallel()
	r1, err := faultedRun()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(faultedConfig(6, obs.NewRecorder()))
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := *r1.Metrics, *r2.Metrics

	if r1.FinalLoss != r2.FinalLoss || r1.FinalAcc != r2.FinalAcc {
		t.Fatalf("final metrics differ: %v/%v vs %v/%v", r1.FinalLoss, r1.FinalAcc, r2.FinalLoss, r2.FinalAcc)
	}
	if len(r1.Losses) != len(r2.Losses) {
		t.Fatalf("loss logs differ in length: %d vs %d", len(r1.Losses), len(r2.Losses))
	}
	for i := range r1.Losses {
		if r1.Losses[i] != r2.Losses[i] {
			t.Fatalf("loss %d differs: %v vs %v", i, r1.Losses[i], r2.Losses[i])
		}
	}
	for k, v := range r1.AlgSeconds {
		if r2.AlgSeconds[k] != v {
			t.Fatalf("AlgSeconds[%s] differs: %v vs %v", k, v, r2.AlgSeconds[k])
		}
	}
	if len(r1.FaultEvents) == 0 {
		t.Fatal("faulted run reported no fault events")
	}
	for k, v := range r1.FaultEvents {
		if r2.FaultEvents[k] != v {
			t.Fatalf("FaultEvents[%s] differs: %d vs %d", k, v, r2.FaultEvents[k])
		}
	}
	c1, c2 := canonicalSpans(s1.Spans), canonicalSpans(s2.Spans)
	if len(c1) != len(c2) {
		t.Fatalf("span counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		a, b := c1[i], c2[i]
		a.ID, a.Parent = 0, 0 // IDs are allocation-order-dependent
		b.ID, b.Parent = 0, 0
		if a != b {
			t.Fatalf("span %d differs:\n  %+v\n  %+v", i, c1[i], c2[i])
		}
	}
	for k, v := range s1.Counters {
		if s2.Counters[k] != v {
			t.Fatalf("counter %s differs: %v vs %v", k, v, s2.Counters[k])
		}
	}
}

// TestDisabledFaultPlanIsInert pins the fast-path contract: a non-nil plan
// that injects nothing must reproduce the fault-free run bit for bit (the
// only difference being the zeroed FaultEvents tally).
func TestDisabledFaultPlanIsInert(t *testing.T) {
	t.Parallel()
	base := baseConfig(8)
	base.UseKFAC = true
	base.KFAC = kfac.DefaultConfig()
	base.NewCompressor = func(rank int) compress.Compressor {
		return compress.NewCOMPSO(int64(rank) + 1)
	}

	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withPlan := base
	withPlan.Fault = &fault.Plan{Seed: 99, Guard: fault.Guard{Ratio: 10}}
	gated, err := Run(withPlan)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FinalLoss != gated.FinalLoss {
		t.Fatalf("disabled plan changed the final loss: %v vs %v", clean.FinalLoss, gated.FinalLoss)
	}
	for i := range clean.Losses {
		if clean.Losses[i] != gated.Losses[i] {
			t.Fatalf("loss %d differs: %v vs %v", i, clean.Losses[i], gated.Losses[i])
		}
	}
	for k, v := range clean.AlgSeconds {
		if gated.AlgSeconds[k] != v {
			t.Fatalf("AlgSeconds[%s] differs: %v vs %v", k, v, gated.AlgSeconds[k])
		}
	}
	if clean.FaultEvents != nil {
		t.Fatal("fault-free run grew a FaultEvents tally")
	}
	if gated.FaultEvents == nil {
		t.Fatal("run with a plan should report a (zero) FaultEvents tally")
	}
	for k, v := range gated.FaultEvents {
		if v != 0 {
			t.Fatalf("disabled plan tallied %s=%d", k, v)
		}
	}
}

// TestCorruptionRecoveryKFAC runs the K-FAC gather path under rate-1
// corruption: the run must complete, converge to a finite loss, and report
// the full recovery ladder (corruptions, retries, lossless fallbacks) both
// in FaultEvents and as obs counters.
func TestCorruptionRecoveryKFAC(t *testing.T) {
	res, err := faultedRun()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("non-finite final loss %v", res.FinalLoss)
	}
	ev := res.FaultEvents
	if ev["corrupted"] == 0 || ev["retries"] == 0 || ev["fallbacks"] == 0 {
		t.Fatalf("recovery ladder not exercised: %v", ev)
	}
	snap := res.Metrics
	if snap.Counters["fault/corrupted_blobs"] != float64(ev["corrupted"]) ||
		snap.Counters["fault/decode_retries"] != float64(ev["retries"]) ||
		snap.Counters["fault/decode_fallbacks"] != float64(ev["fallbacks"]) {
		t.Fatalf("obs counters disagree with FaultEvents: %v vs %v", snap.Counters, ev)
	}
	// Reconciliation must survive fault injection: the spans and the
	// engine attribute the same (perturbed) timeline.
	perWorker := map[string]float64{}
	for k, v := range snap.AlgSeconds() {
		perWorker[k] = v / 4
	}
	if err := obs.ReconcileAlgSeconds(perWorker, res.AlgSeconds, 0.01); err != nil {
		t.Fatalf("span/AlgSeconds reconciliation under faults: %v", err)
	}
}

// TestCorruptionRecoverySGD exercises the compressed first-order gather
// path's decodeGathered ladder under rate-1 corruption.
func TestCorruptionRecoverySGD(t *testing.T) {
	cfg := baseConfig(6)
	cfg.NewCompressor = func(rank int) compress.Compressor {
		return compress.NewCOMPSO(int64(rank) + 1)
	}
	cfg.Fault = &fault.Plan{
		Seed:       4,
		Corruption: fault.Corruption{Rate: 1, BitFlips: 5},
		MaxRetries: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("non-finite final loss %v", res.FinalLoss)
	}
	if res.FaultEvents["fallbacks"] == 0 {
		t.Fatalf("SGD path never fell back to lossless: %v", res.FaultEvents)
	}
}

// TestStragglerSlowsRunWithoutChangingNumerics: a compute straggler must
// stretch the simulated timeline but leave every numeric result untouched
// (compute time is charged, not computed differently).
func TestStragglerSlowsRunWithoutChangingNumerics(t *testing.T) {
	t.Parallel()
	base := baseConfig(8)
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := baseConfig(8)
	slow.Fault = &fault.Plan{
		Seed:       2,
		Stragglers: []fault.Straggler{{Rank: 0, Factor: 4}},
	}
	res, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss != clean.FinalLoss {
		t.Fatalf("straggler changed numerics: %v vs %v", res.FinalLoss, clean.FinalLoss)
	}
}

// TestGuardRetunesUnderDegradedLinks: sustained link degradation beyond the
// guard ratio must trigger autotuner retunes.
func TestGuardRetunesUnderDegradedLinks(t *testing.T) {
	cfg := baseConfig(10)
	cfg.Fault = &fault.Plan{
		Seed: 6,
		Links: []fault.LinkFault{{
			SrcNode: -1, DstNode: -1,
			AlphaFactor: 4, BetaFactor: 3, Jitter: 0.2,
		}},
		Guard: fault.Guard{Ratio: 1.3, Patience: 2},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents["retunes"] == 0 {
		t.Fatalf("guard never retuned under 4x link degradation: %v", res.FaultEvents)
	}
}

var errInjected = errors.New("injected compress failure")

// failingCompressor fails its failAt-th Compress call (1-based; 0 never).
type failingCompressor struct {
	compress.Compressor
	calls, failAt int
}

func (f *failingCompressor) Compress(src []float32) ([]byte, error) {
	f.calls++
	if f.calls == f.failAt {
		return nil, errInjected
	}
	return f.Compressor.Compress(src)
}

// A rank whose step fails ends the run with its error. Its peers are
// blocked in the next collective when it returns; they must unwind rather
// than wait for it forever, and their worker-loss unwinds must not hide
// the real error.
func TestFailingRankFailsTheRun(t *testing.T) {
	cfg := baseConfig(10)
	cfg.NewCompressor = func(rank int) compress.Compressor {
		c := &failingCompressor{Compressor: compress.NewCocktailSGD(0.2, 8, int64(rank)+100)}
		if rank == 1 {
			c.failAt = 3
		}
		return c
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errInjected) {
			t.Fatalf("Run returned %v, want the injected compress failure", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run still blocked a minute after rank 1's compressor failed")
	}
}
