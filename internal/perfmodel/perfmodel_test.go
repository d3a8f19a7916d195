package perfmodel

import (
	"math"
	"testing"

	"compso/internal/cluster"
)

func table(t *testing.T, cfg cluster.Config) *LookupTable {
	t.Helper()
	lt, err := BuildLookupTable(cfg, []int{4, 8, 16, 32, 64, 128, 256})
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

func goodProfile() OnlineProfile {
	return OnlineProfile{CompressionRatio: 20, CompressBps: 50e9, DecompressBps: 50e9, CommRatio: 0.35}
}

func TestBuildLookupTableErrors(t *testing.T) {
	if _, err := BuildLookupTable(cluster.Config{}, []int{8}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := BuildLookupTable(cluster.Platform1(), nil); err == nil {
		t.Fatal("empty GPU counts accepted")
	}
}

func TestThroughputMonotoneInSize(t *testing.T) {
	// Bigger messages amortize latency: effective throughput rises with
	// size, as real all-gather micro-benchmarks show.
	lt := table(t, cluster.Platform1())
	prev := 0.0
	for _, sz := range []int{1 << 12, 1 << 16, 1 << 20, 1 << 24} {
		cur := lt.Throughput(sz, 32)
		if cur < prev {
			t.Fatalf("throughput dropped at %d bytes: %g -> %g", sz, prev, cur)
		}
		prev = cur
	}
}

func TestThroughputInterpolatesAndClamps(t *testing.T) {
	lt := table(t, cluster.Platform1())
	mid := lt.Throughput(6<<10, 32) // 6 KB: between the 4K and 8K buckets
	lo := lt.Throughput(1<<12, 32)
	hi := lt.Throughput(1<<13, 32)
	if mid < lo || mid > hi {
		t.Fatalf("interpolated %g outside [%g, %g]", mid, lo, hi)
	}
	if lt.Throughput(1, 32) != lt.Throughput(1<<10, 32) {
		t.Fatal("small sizes should clamp to the first bucket")
	}
	if lt.Throughput(1<<30, 32) != lt.Throughput(1<<28, 32) {
		t.Fatal("large sizes should clamp to the last bucket")
	}
}

func TestSingleGPUFreeComm(t *testing.T) {
	lt := table(t, cluster.Platform1())
	s, err := lt.CommSpeedup([]int{1 << 20}, 4, 1, goodProfile())
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("speedup %g", s)
	}
	_ = math.Inf // silence linters if unused elsewhere
}

func TestCommSpeedupReflectsCompressionRatio(t *testing.T) {
	lt := table(t, cluster.Platform1())
	layers := []int{4 << 20, 2 << 20, 8 << 20, 1 << 20}
	low := goodProfile()
	low.CompressionRatio = 5
	high := goodProfile()
	high.CompressionRatio = 22
	sLow, err := lt.CommSpeedup(layers, 64, 4, low)
	if err != nil {
		t.Fatal(err)
	}
	sHigh, err := lt.CommSpeedup(layers, 64, 4, high)
	if err != nil {
		t.Fatal(err)
	}
	if sHigh <= sLow {
		t.Fatalf("higher CR gave lower speedup: %g vs %g", sHigh, sLow)
	}
	if sHigh < 2 {
		t.Fatalf("CR 22 speedup only %g", sHigh)
	}
}

func TestSlowCompressorKillsSpeedup(t *testing.T) {
	// The whole reason the paper needs GPU optimizations: a slow compressor
	// can erase the communication win. On the fast intra-node domain
	// (4 GPUs over NVLink) a 100 MB/s compressor must lose outright.
	lt := table(t, cluster.Platform1())
	layers := []int{4 << 20}
	slow := goodProfile()
	slow.CompressBps = 100e6 // 100 MB/s
	slow.DecompressBps = 100e6
	s, err := lt.CommSpeedup(layers, 4, 1, slow)
	if err != nil {
		t.Fatal(err)
	}
	if s >= 1 {
		t.Fatalf("slow compressor still 'sped up' comm: %g", s)
	}
}

func TestSlowerNetworkBenefitsMore(t *testing.T) {
	// §5.2: "With a slower network (e.g., Slingshot 10), the speedup is
	// greater than with a faster network (Slingshot 11)."
	layers := []int{8 << 20, 8 << 20}
	p1 := table(t, cluster.Platform1())
	p2 := table(t, cluster.Platform2())
	s1, err := p1.CommSpeedup(layers, 64, 4, goodProfile())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.CommSpeedup(layers, 64, 4, goodProfile())
	if err != nil {
		t.Fatal(err)
	}
	if s1 <= s2 {
		t.Fatalf("Slingshot-10 speedup %g <= Slingshot-11 %g", s1, s2)
	}
}

func TestEndToEnd(t *testing.T) {
	// The paper's own example: r = 50%, s = 10x → 1.8x end-to-end.
	if got := EndToEnd(0.5, 10); math.Abs(got-1.0/(0.5+0.05)) > 1e-12 {
		t.Fatalf("EndToEnd(0.5, 10) = %g", got)
	}
	if got := EndToEnd(0.5, 10); math.Abs(got-1.818181818) > 1e-6 {
		t.Fatalf("EndToEnd = %g, want ~1.82", got)
	}
	if EndToEnd(0.3, 0) != 0 {
		t.Fatal("zero speedup should project 0")
	}
}

func TestBestAggregationPrefersGroupingSmallLayers(t *testing.T) {
	// Many small layers underutilize the network (latency-bound);
	// aggregation must help.
	lt := table(t, cluster.Platform1())
	layers := make([]int, 50)
	for i := range layers {
		layers[i] = 24 << 10 // 24 KB layers: latency-dominated
	}
	m, gain, err := lt.BestAggregation(layers, 64, goodProfile())
	if err != nil {
		t.Fatal(err)
	}
	if m < 2 {
		t.Fatalf("best aggregation %d, want >= 2 for tiny layers", m)
	}
	if gain <= 1 {
		t.Fatalf("projected gain %g <= 1", gain)
	}
	s1, err := lt.CommSpeedup(layers, 64, 1, goodProfile())
	if err != nil {
		t.Fatal(err)
	}
	sM, err := lt.CommSpeedup(layers, 64, m, goodProfile())
	if err != nil {
		t.Fatal(err)
	}
	if sM <= s1 {
		t.Fatalf("aggregation did not improve comm speedup: %g vs %g", sM, s1)
	}
}

func TestCommSpeedupValidation(t *testing.T) {
	lt := table(t, cluster.Platform1())
	if _, err := lt.CommSpeedup([]int{1}, 8, 0, goodProfile()); err == nil {
		t.Fatal("m=0 accepted")
	}
	bad := goodProfile()
	bad.CompressionRatio = 0.5
	if _, err := lt.CommSpeedup([]int{1}, 8, 1, bad); err == nil {
		t.Fatal("CR < 1 accepted")
	}
	bad = goodProfile()
	bad.CommRatio = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("comm ratio > 1 accepted")
	}
	if s, err := lt.CommSpeedup(nil, 8, 1, goodProfile()); err != nil || s != 1 {
		t.Fatalf("empty layers: s=%g err=%v", s, err)
	}
}

func TestSelectEncoderBalancesRatioAndSpeed(t *testing.T) {
	// An encoder with a great ratio but terrible throughput must lose to a
	// balanced one — Table 2's argument for ANS over Zstd/Deflate.
	lt := table(t, cluster.Platform1())
	layers := []int{8 << 20, 8 << 20, 8 << 20}
	ms := []EncoderMeasurement{
		{Name: "Zstd", CompressionRatio: 23.8, CompressBps: 0.27e9, DecompressBps: 0.76e9},
		{Name: "ANS", CompressionRatio: 22.0, CompressBps: 43e9, DecompressBps: 93e9},
		{Name: "Bitcomp", CompressionRatio: 14.0, CompressBps: 108e9, DecompressBps: 34e9},
	}
	got, err := lt.SelectEncoder(layers, 64, 4, 0.35, ms)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "ANS" {
		t.Fatalf("selected %s, want ANS", got.Name)
	}
	if _, err := lt.SelectEncoder(layers, 64, 4, 0.35, nil); err == nil {
		t.Fatal("empty measurement set accepted")
	}
}

func TestBuildLookupTableMatchesEngine(t *testing.T) {
	// The table is well-formed (positive, size-monotone throughput at fixed
	// GPU count) and each ladder cell is exactly the engine's prediction:
	// the table measures the schedule the autotuner would dispatch.
	cfg := cluster.Platform1()
	lt, err := BuildLookupTable(cfg, []int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := cluster.EngineFor(cfg, 64)
	prev := 0.0
	for _, sz := range []int{1 << 12, 1 << 16, 1 << 20, 1 << 24} {
		cur := lt.Throughput(sz, 64)
		if cur <= 0 || math.IsInf(cur, 1) {
			t.Fatalf("throughput at %d bytes = %g", sz, cur)
		}
		if cur < prev {
			t.Fatalf("throughput dropped at %d bytes: %g -> %g", sz, prev, cur)
		}
		prev = cur
		if _, sec := eng.PredictAllGather(sz); cur != float64(sz)/sec {
			t.Fatalf("throughput at %d bytes = %g, engine predicts %g", sz, cur, float64(sz)/sec)
		}
	}
}
