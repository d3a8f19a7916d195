package compso_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"compso"
	"compso/internal/xrand"
)

// mustCompressor builds a registry family or fails the test.
func mustCompressor(tb testing.TB, family string, opts ...compso.Option) compso.Compressor {
	tb.Helper()
	c, err := compso.NewCompressorFor(family, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// mustPlatform looks up a registry platform or fails the test.
func mustPlatform(tb testing.TB, name string) compso.Platform {
	tb.Helper()
	p, err := compso.PlatformByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func gradientSample(n int, seed int64) []float32 {
	src := make([]float32, n)
	xrand.KFACGradient(xrand.NewSeeded(seed), src, 1.0)
	return src
}

func TestFacadeCompressors(t *testing.T) {
	src := gradientSample(50000, 1)
	compressors := []compso.Compressor{
		compso.New(compso.WithSeed(1)),
		mustCompressor(t, "qsgd", compso.WithBits(8), compso.WithSeed(2)),
		mustCompressor(t, "sz", compso.WithRelErrorBound(4e-3)),
		mustCompressor(t, "cocktail", compso.WithKeepFraction(0.2), compso.WithBits(8), compso.WithSeed(3)),
		compso.NewErrorFeedback(mustCompressor(t, "qsgd", compso.WithBits(8), compso.WithSeed(4))),
	}
	for _, c := range compressors {
		blob, err := c.Compress(src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		out, err := c.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(out) != len(src) {
			t.Fatalf("%s: %d values", c.Name(), len(out))
		}
		if r := compso.Ratio(len(src), blob); r < 2 {
			t.Errorf("%s: ratio %.1f < 2", c.Name(), r)
		}
	}
}

func TestFacadeCompressorErrorBound(t *testing.T) {
	src := gradientSample(50000, 5)
	c := compso.New(compso.WithSeed(6))
	blob, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if e := math.Abs(float64(out[i] - src[i])); e > c.MaxError()+1e-7 {
			t.Fatalf("error %g exceeds advertised bound %g", e, c.MaxError())
		}
	}
}

func TestFacadeCodecs(t *testing.T) {
	if got := len(compso.Codecs()); got != 8 {
		t.Fatalf("%d codecs, want 8", got)
	}
	if _, err := compso.CodecByName("ANS"); err != nil {
		t.Fatal(err)
	}
	if _, err := compso.CodecByName("nope"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestFacadeModels(t *testing.T) {
	models := compso.Models()
	if len(models) != 4 {
		t.Fatalf("%d models", len(models))
	}
	p, err := compso.ModelByName("BERT-large")
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalParams() < 200e6 {
		t.Fatalf("BERT-large params %d", p.TotalParams())
	}
}

func TestFacadeControllerAndSchedules(t *testing.T) {
	sched := &compso.StepLR{BaseLR: 0.1, Drops: []int{10}, Gamma: 0.1}
	ctrl := compso.NewController(sched, 20)
	early := ctrl.StrategyAt(0)
	late := ctrl.StrategyAt(15)
	if !early.FilterEnabled || late.FilterEnabled {
		t.Fatalf("controller strategies: early %+v late %+v", early, late)
	}
}

func TestFacadeTuner(t *testing.T) {
	sample := gradientSample(50000, 7)
	res, err := compso.TuneBounds(sample, 0.98, 1e-5, 1e-1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cosine < 0.98 || res.Ratio <= 1 {
		t.Fatalf("tuner result %+v", res)
	}
	if got := compso.CosineSimilarity(sample, sample); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self cosine %g", got)
	}
}

func TestFacadePerformanceModel(t *testing.T) {
	lt, err := compso.BuildLookupTable(mustPlatform(t, "slingshot10"), []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if lt.Throughput(1<<20, 64) <= 0 {
		t.Fatal("zero throughput")
	}
	if got := compso.EndToEndSpeedup(0.5, 10); math.Abs(got-1.8181818) > 1e-3 {
		t.Fatalf("EndToEndSpeedup = %g", got)
	}
}

func TestFacadeEndToEndTraining(t *testing.T) {
	sched := &compso.StepLR{BaseLR: 0.03, Drops: []int{30}, Gamma: 0.1}
	res, err := compso.Train(compso.TrainConfig{
		BuildTask: func(rng *rand.Rand) *compso.ProxyTask {
			return compso.ProxyResNet(rng, 9)
		},
		Workers:  4,
		Platform: mustPlatform(t, "slingshot11"),
		Iters:    40,
		Seed:     10,
		Schedule: sched,
		UseKFAC:  true,
		KFAC:     compso.DefaultKFAC(),
		NewCompressor: func(rank int) compso.Compressor {
			return compso.New(compso.WithSeed(int64(rank) + 20))
		},
		Controller:   compso.NewController(sched, 40),
		AggregationM: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Losses[0] {
		t.Fatalf("no learning: %v", res.Losses)
	}
	if res.MeanCR <= 1 {
		t.Fatalf("mean CR %.1f", res.MeanCR)
	}
	if res.Model == nil {
		t.Fatal("trained model missing from result")
	}
}

func TestFacadeRandDeterminism(t *testing.T) {
	a, b := compso.NewRand(1), compso.NewRand(1)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewRand not deterministic")
		}
	}
}
