package train

import (
	"runtime"
	"strings"
	"testing"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/xrand"
)

// powerSGDFactory builds shared-seed PowerSGD instances — identical on
// every worker, the ring-mode SPMD invariant.
func powerSGDFactory(ef bool) func(rank int) compress.Compressor {
	return func(rank int) compress.Compressor {
		c, err := compress.ByName("powersgd", compress.Options{Seed: 7, Rank: 4, ErrorFeedback: ef})
		if err != nil {
			panic(err)
		}
		return c
	}
}

// TestSGDWithPowerSGDRingPath: an AllReducible compressor must route the
// gradient exchange through the ring all-reduce — never the blob
// all-gather — and still converge.
func TestSGDWithPowerSGDRingPath(t *testing.T) {
	cfg := baseConfig(judgeIters(40, 10))
	cfg.NewCompressor = powerSGDFactory(false)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSeconds["grad-lowrank-allreduce"] <= 0 {
		t.Fatalf("no low-rank allreduce time recorded: %v", res.CommSeconds)
	}
	if res.CommSeconds["grad-allgather"] > 0 {
		t.Fatalf("low-rank run used the all-gather path: %v", res.CommSeconds)
	}
	for k := range res.AlgSeconds {
		if strings.HasPrefix(k, "allgather/") {
			t.Fatalf("all-gather algorithm time attributed in a ring run: %v", res.AlgSeconds)
		}
	}
	foundAR := false
	for k := range res.AlgSeconds {
		if strings.HasPrefix(k, "allreduce/") {
			foundAR = true
		}
	}
	if !foundAR {
		t.Fatalf("no allreduce algorithm attribution: %v", res.AlgSeconds)
	}
	if res.FinalLoss >= res.Losses[0] {
		t.Fatalf("loss did not drop: %v", res.Losses)
	}
	if res.MeanCR <= 4 {
		t.Fatalf("ring path mean CR %.2f, want substantial compression", res.MeanCR)
	}
}

// TestPowerSGDRingDeterministic: repeat runs must be bit-identical — the
// ring path's shared factor state is deterministic end to end.
func TestPowerSGDRingDeterministic(t *testing.T) {
	t.Parallel()
	run := func() *Result {
		cfg := baseConfig(20)
		cfg.NewCompressor = powerSGDFactory(false)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Losses) != len(b.Losses) {
		t.Fatalf("eval counts differ: %d vs %d", len(a.Losses), len(b.Losses))
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("loss %d differs: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
	if a.MeanCR != b.MeanCR {
		t.Fatalf("MeanCR differs: %v vs %v", a.MeanCR, b.MeanCR)
	}
}

// TestSGDWithPowerSGDErrorFeedback: the EF wrapper must ride the ring
// path (residual against the aggregated reconstruction) and converge.
func TestSGDWithPowerSGDErrorFeedback(t *testing.T) {
	cfg := baseConfig(judgeIters(40, 10))
	cfg.NewCompressor = powerSGDFactory(true)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSeconds["grad-lowrank-allreduce"] <= 0 {
		t.Fatalf("EF-wrapped low-rank run left the ring path: %v", res.CommSeconds)
	}
	if res.FinalLoss >= res.Losses[0] {
		t.Fatalf("loss did not drop: %v", res.Losses)
	}
}

// TestEFOverNonReducibleStaysOnAllGather: EF around a family that can't
// sum-aggregate must fall back to the blob all-gather.
func TestEFOverNonReducibleStaysOnAllGather(t *testing.T) {
	t.Parallel()
	cfg := baseConfig(12)
	cfg.NewCompressor = func(rank int) compress.Compressor {
		return compress.NewErrorFeedback(compress.NewQSGD(8, int64(rank)+3))
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSeconds["grad-lowrank-allreduce"] > 0 {
		t.Fatalf("non-reducible EF stack took the ring path: %v", res.CommSeconds)
	}
	if res.CommSeconds["grad-allgather"] <= 0 {
		t.Fatalf("no all-gather time recorded: %v", res.CommSeconds)
	}
}

// TestPerLayerKFACPlan: mixed per-layer families (PowerSGD on even
// layers, COMPSO on odd) through the K-FAC exchange, decoded by the
// magic-byte dispatcher on the receive side.
func TestPerLayerKFACPlan(t *testing.T) {
	t.Parallel()
	cfg := baseConfig(judgeIters(40, 10))
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.AggregationM = 1
	cfg.NewLayerCompressor = func(rank, layer int) compress.Compressor {
		if layer%2 == 0 {
			return compress.NewPowerSGD(4, 7) // shared seed per layer
		}
		c, err := compress.ByName("compso", compress.Options{Seed: int64(rank)*100 + int64(layer)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Losses[0] {
		t.Fatalf("per-layer K-FAC loss did not drop: %v", res.Losses)
	}
	if res.MeanCR <= 1 {
		t.Fatalf("per-layer plan mean CR %.2f", res.MeanCR)
	}
	if res.CommSeconds["kfac-allgather"] <= 0 {
		t.Fatalf("no kfac all-gather time: %v", res.CommSeconds)
	}
}

// TestPerLayerKFACValidation: the per-layer path's config preconditions
// are enforced.
func TestPerLayerKFACValidation(t *testing.T) {
	lc := func(rank, layer int) compress.Compressor { return compress.NewPowerSGD(4, 7) }

	cfg := baseConfig(4)
	cfg.NewLayerCompressor = lc
	if _, err := Run(cfg); err == nil {
		t.Fatal("NewLayerCompressor without UseKFAC accepted")
	}

	cfg = baseConfig(4)
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.AggregationM = 4
	cfg.NewLayerCompressor = lc
	if _, err := Run(cfg); err == nil {
		t.Fatal("NewLayerCompressor with AggregationM != 1 accepted")
	}

	cfg = baseConfig(4)
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.AggregationM = 1
	cfg.NewLayerCompressor = lc
	cfg.NewCompressor = func(rank int) compress.Compressor { return compress.NewQSGD(8, 1) }
	if _, err := Run(cfg); err == nil {
		t.Fatal("NewLayerCompressor alongside NewCompressor accepted")
	}
}

// A steady-state low-rank exchange reuses its buffers: the error-feedback
// correction, the reconstruction and the averaged factors live in the
// compressor, and the flat gradient in the arena. What a call may still
// allocate (the communicated factor, the collective's bookkeeping) stays
// under one stream's worth of bytes.
func TestLowRankSyncAllocatesLessThanAStream(t *testing.T) {
	task := modelzoo.ProxyResNet(xrand.NewSeeded(1), 1)
	x, y := task.Data.Sample(xrand.NewSeeded(2), task.Batch)
	_, grad := task.Loss.Loss(task.Model.Forward(x, true), y)
	task.Model.Backward(grad)
	ar, ef := ringCompressor(powerSGDFactory(true)(0))
	stream := 4 * task.Model.ParamCount()
	const calls = 6
	var perCall uint64
	cluster.New(cluster.Platform1(), 1).Run(func(w *cluster.Worker) {
		tel, cr := newTele(w), &crAccum{}
		sync := func() {
			if err := lowrankSync(w, task.Model, ar, ef, tel, cr, "grad-lowrank-allreduce"); err != nil {
				t.Error(err)
			}
		}
		// Both phases once: the first P and Q factors are new storage.
		sync()
		sync()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			sync()
		}
		runtime.ReadMemStats(&after)
		perCall = (after.TotalAlloc - before.TotalAlloc) / calls
	})
	t.Logf("%d B/call, stream %d B", perCall, stream)
	if perCall >= uint64(stream) {
		t.Fatalf("lowrankSync allocated %d B/call, want less than one %d B stream", perCall, stream)
	}
}
