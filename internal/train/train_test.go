package train

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/opt"
)

func baseConfig(iters int) Config {
	return Config{
		BuildTask: func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyResNet(rng, 5) },
		Workers:   4,
		Platform:  cluster.Platform1(),
		Iters:     iters,
		Seed:      42,
		Schedule:  &opt.StepLR{BaseLR: 0.03, Drops: []int{iters / 2}, Gamma: 0.1},
	}
}

// Tests that touch process-wide state (pool debug tracking, GOMAXPROCS,
// allocation counters) run sequentially. Most of the others call
// t.Parallel: go test starts those only once every sequential test has
// finished, and run results are independent of goroutine scheduling.

// judgeIters is a convergence judge's budget: iters natively, and race
// under the race detector, which needs each code path once, not a
// converged model. Every assertion of the judge holds at both budgets.
func judgeIters(iters, race int) int {
	if raceEnabled {
		return race
	}
	return iters
}

// plainKFACRuns memoizes plainKFAC by budget.
var plainKFACRuns sync.Map

// plainKFAC is uncompressed K-FAC on baseConfig(iters), run once per budget
// and test binary: TestKFACTrainingConverges checks it, and the compressed
// judges compare against it.
func plainKFAC(t *testing.T, iters int) *Result {
	t.Helper()
	run, _ := plainKFACRuns.LoadOrStore(iters, sync.OnceValues(func() (*Result, error) {
		cfg := baseConfig(iters)
		cfg.UseKFAC = true
		cfg.KFAC = kfac.DefaultConfig()
		return Run(cfg)
	}))
	res, err := run.(func() (*Result, error))()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestSGDTrainingConverges(t *testing.T) {
	cfg := baseConfig(judgeIters(60, 10))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) < 2 {
		t.Fatalf("only %d eval points", len(res.Losses))
	}
	if res.FinalLoss >= res.Losses[0] {
		t.Fatalf("loss did not drop: %v", res.Losses)
	}
	if res.CommSeconds["grad-allreduce"] <= 0 {
		t.Fatalf("no allreduce time recorded: %v", res.CommSeconds)
	}
}

func TestKFACTrainingConverges(t *testing.T) {
	res := plainKFAC(t, judgeIters(60, 10))
	if res.FinalLoss >= res.Losses[0] {
		t.Fatalf("KFAC loss did not drop: %v", res.Losses)
	}
	if res.CommSeconds["kfac-allgather"] <= 0 || res.CommSeconds["kfac-allreduce"] <= 0 {
		t.Fatalf("missing KFAC comm categories: %v", res.CommSeconds)
	}
	// The step-level engine attributes the same time per algorithm.
	var algTotal float64
	for k, v := range res.AlgSeconds {
		if v < 0 {
			t.Fatalf("negative algorithm time %s=%g", k, v)
		}
		algTotal += v
	}
	if algTotal <= 0 {
		t.Fatalf("no per-algorithm attribution: %v", res.AlgSeconds)
	}
}

func TestKFACWithCOMPSOMatchesUncompressedAccuracy(t *testing.T) {
	t.Parallel()
	// Figure 6's claim: KFAC+COMPSO converges like uncompressed KFAC. At
	// fewer than 40 steps COMPSO's mean CR is still under 5.
	iters := judgeIters(60, 40)
	resPlain := plainKFAC(t, iters)
	comp := baseConfig(iters)
	comp.UseKFAC = true
	comp.KFAC = kfac.DefaultConfig()
	comp.NewCompressor = func(rank int) compress.Compressor {
		return compso.NewCompressor(nil, rank, 99)
	}
	comp.Controller = compso.DefaultController(comp.Schedule, iters)
	comp.AggregationM = 4
	resComp, err := Run(comp)
	if err != nil {
		t.Fatal(err)
	}

	if resComp.MeanCR < 5 {
		t.Fatalf("COMPSO mean CR %.1f too low", resComp.MeanCR)
	}
	// Accuracy within a few points of uncompressed.
	if resComp.FinalAcc < resPlain.FinalAcc-0.08 {
		t.Fatalf("COMPSO accuracy %.3f vs plain %.3f", resComp.FinalAcc, resPlain.FinalAcc)
	}
}

func TestReplicasStayInSyncWithCompression(t *testing.T) {
	t.Parallel()
	// Every worker must decode identical bytes → identical updates. A
	// 1-worker vs 2-worker run can differ (different data), but a run must
	// be internally consistent: verify by running twice with the same seed
	// and comparing logs (divergent replicas would poison determinism).
	cfg := baseConfig(20)
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.NewCompressor = func(rank int) compress.Compressor {
		return compso.NewCompressor(nil, rank, 7)
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Losses) != len(b.Losses) {
		t.Fatal("eval counts differ")
	}
	for i := range a.Losses {
		if math.Abs(a.Losses[i]-b.Losses[i]) > 1e-12 {
			t.Fatalf("run not deterministic at eval %d: %g vs %g", i, a.Losses[i], b.Losses[i])
		}
	}
}

func TestSGDWithCocktailCompressor(t *testing.T) {
	cfg := baseConfig(judgeIters(40, 10))
	cfg.NewCompressor = func(rank int) compress.Compressor {
		return compress.NewCocktailSGD(0.2, 8, int64(rank)+100)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCR < 5 {
		t.Fatalf("CocktailSGD CR %.1f", res.MeanCR)
	}
	if res.FinalLoss >= res.Losses[0] {
		t.Fatalf("compressed SGD failed to learn: %v", res.Losses)
	}
}

func TestAggregationFactorsProduceSameResultShape(t *testing.T) {
	t.Parallel()
	for _, m := range []int{1, 4, 16} {
		cfg := baseConfig(10)
		cfg.UseKFAC = true
		cfg.KFAC = kfac.DefaultConfig()
		cfg.AggregationM = m
		cfg.NewCompressor = func(rank int) compress.Compressor {
			return compso.NewCompressor(nil, rank, 55)
		}
		if _, err := Run(cfg); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}

func TestStatFreqAmortization(t *testing.T) {
	t.Parallel()
	// Less frequent factor all-reduce must reduce kfac-allreduce time.
	run := func(freq int) float64 {
		cfg := baseConfig(20)
		cfg.UseKFAC = true
		cfg.KFAC = kfac.DefaultConfig()
		cfg.StatFreq = freq
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.CommSeconds["kfac-allreduce"]
	}
	if run(10) >= run(1) {
		t.Fatal("StatFreq=10 did not reduce factor all-reduce time")
	}
}

func TestOwnedLayersPartition(t *testing.T) {
	seen := map[int]int{}
	s := newShape(Config{Workers: 4, AggregationM: 2}, nil, 10)
	owned, groups := s.owned, s.groups
	for rank := range owned {
		for _, l := range owned[rank] {
			seen[l]++
		}
		for _, g := range groups[rank] {
			if len(g) == 0 || len(g) > 2 {
				t.Fatalf("rank %d: aggregation group %v, want 1 or 2 layers", rank, g)
			}
		}
		if got := slices.Concat(groups[rank]...); !slices.Equal(got, owned[rank]) {
			t.Fatalf("rank %d: groups %v do not cut its layers %v in order", rank, groups[rank], owned[rank])
		}
	}
	if len(seen) != 10 {
		t.Fatalf("partition covered %d layers", len(seen))
	}
	for l, c := range seen {
		if c != 1 {
			t.Fatalf("layer %d owned %d times", l, c)
		}
	}
}

func TestCompressedFactorExchangeConverges(t *testing.T) {
	t.Parallel()
	// Future-work extension: compressing the Kronecker-factor exchange
	// must not break convergence and must shrink the factor traffic.
	iters := judgeIters(40, 10)
	resPlain := plainKFAC(t, iters)
	comp := baseConfig(iters)
	comp.UseKFAC = true
	comp.KFAC = kfac.DefaultConfig()
	comp.CompressFactors = true
	comp.FactorEB = 1e-3
	resComp, err := Run(comp)
	if err != nil {
		t.Fatal(err)
	}
	if resComp.FinalLoss > resPlain.FinalLoss*2+0.1 {
		t.Fatalf("factor compression broke convergence: %g vs %g", resComp.FinalLoss, resPlain.FinalLoss)
	}
	if resComp.FinalAcc < resPlain.FinalAcc-0.1 {
		t.Fatalf("factor compression accuracy %.3f vs %.3f", resComp.FinalAcc, resPlain.FinalAcc)
	}
}

func TestMoreWorkersThanLayers(t *testing.T) {
	// 8 workers, model has 4 KFAC layers: some workers own no layers and
	// must still participate in the collectives correctly.
	cfg := baseConfig(10)
	cfg.Workers = 8
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.NewCompressor = func(rank int) compress.Compressor {
		return compso.NewCompressor(nil, rank, 66)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestSingleWorker(t *testing.T) {
	cfg := baseConfig(judgeIters(15, 10))
	cfg.Workers = 1
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Losses[0] {
		t.Fatalf("single-worker KFAC failed to learn: %v", res.Losses)
	}
}

func TestCompressedFactorsDeterministic(t *testing.T) {
	t.Parallel()
	cfg := baseConfig(12)
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.CompressFactors = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Losses {
		if math.Abs(a.Losses[i]-b.Losses[i]) > 1e-12 {
			t.Fatal("factor-compressed run not deterministic")
		}
	}
}

func TestEvalCadence(t *testing.T) {
	cfg := baseConfig(30)
	cfg.EvalEvery = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 30}
	if len(res.Iterations) != len(want) {
		t.Fatalf("eval points %v", res.Iterations)
	}
	for i, w := range want {
		if res.Iterations[i] != w {
			t.Fatalf("eval points %v, want %v", res.Iterations, want)
		}
	}
}
