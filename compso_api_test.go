package compso_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"compso"
	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/obs"
)

// TestFacadeNewOptions exercises compso.New with every functional option,
// including a compress/decompress round trip per configuration.
func TestFacadeNewOptions(t *testing.T) {
	src := gradientSample(20000, 11)

	t.Run("defaults match direct construction", func(t *testing.T) {
		a, _ := compso.New(compso.WithSeed(3)).Compress(src)
		b, _ := compress.NewCOMPSO(3).Compress(src)
		if !bytes.Equal(a, b) {
			t.Fatal("New() and compress.NewCOMPSO produce different streams for the same seed")
		}
	})

	t.Run("WithSeed is deterministic", func(t *testing.T) {
		a, _ := compso.New(compso.WithSeed(5)).Compress(src)
		b, _ := compso.New(compso.WithSeed(5)).Compress(src)
		c, _ := compso.New(compso.WithSeed(6)).Compress(src)
		if !bytes.Equal(a, b) {
			t.Fatal("same seed, different streams")
		}
		if bytes.Equal(a, c) {
			t.Fatal("different seeds, identical streams")
		}
	})

	t.Run("WithErrorBound", func(t *testing.T) {
		c := compso.New(compso.WithSeed(1), compso.WithErrorBound(1e-3), compso.WithFilterBound(0))
		if c.EBQuant != 1e-3 || c.FilterEnabled {
			t.Fatalf("got ebq=%g filter=%v", c.EBQuant, c.FilterEnabled)
		}
		blob, err := c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if e := math.Abs(float64(out[i] - src[i])); e > 1e-3+1e-7 {
				t.Fatalf("error %g exceeds bound 1e-3", e)
			}
		}
	})

	t.Run("WithFilterBound", func(t *testing.T) {
		c := compso.New(compso.WithSeed(1), compso.WithFilterBound(8e-3))
		if !c.FilterEnabled || c.EBFilter != 8e-3 {
			t.Fatalf("got filter=%v ebf=%g", c.FilterEnabled, c.EBFilter)
		}
		if blob, err := c.Compress(src); err != nil {
			t.Fatal(err)
		} else if _, err := c.Decompress(blob); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("WithCodec", func(t *testing.T) {
		codec, err := compso.CodecByName("Zstd")
		if err != nil {
			t.Fatal(err)
		}
		c := compso.New(compso.WithSeed(1), compso.WithCodec(codec))
		blob, err := c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(src) {
			t.Fatalf("%d values", len(out))
		}
	})

	t.Run("WithObserver", func(t *testing.T) {
		o := compso.NewObserver()
		c := compso.New(compso.WithSeed(1), compso.WithObserver(o))
		if _, err := c.Compress(src); err != nil {
			t.Fatal(err)
		}
		snap := o.Snapshot()
		if snap.Counters["compress/calls"] != 1 {
			t.Fatalf("compress/calls = %g", snap.Counters["compress/calls"])
		}
		if h, ok := snap.Histograms["compress/ratio"]; !ok || h.Count != 1 || h.Mean <= 1 {
			t.Fatalf("compress/ratio histogram %+v", snap.Histograms["compress/ratio"])
		}
		if h, ok := snap.Histograms["compress/filter_hit_rate"]; !ok || h.Mean <= 0 || h.Mean > 1 {
			t.Fatalf("filter_hit_rate histogram %+v", snap.Histograms["compress/filter_hit_rate"])
		}
	})
}

// TestFacadePlatformRegistry checks the name-based platform lookup against
// the cluster package's platform definitions.
func TestFacadePlatformRegistry(t *testing.T) {
	want := []string{"slingshot10", "slingshot11"}
	if got := compso.Platforms(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Platforms() = %v, want %v", got, want)
	}
	p1, err := compso.PlatformByName("slingshot10")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != cluster.Platform1() {
		t.Fatal("slingshot10 does not match cluster.Platform1()")
	}
	p2, err := compso.PlatformByName("slingshot11")
	if err != nil {
		t.Fatal(err)
	}
	if p2 != cluster.Platform2() {
		t.Fatal("slingshot11 does not match cluster.Platform2()")
	}
}

// TestFacadeSentinelErrors is the table-driven errors.Is check for the
// facade's lookup and decode paths.
func TestFacadeSentinelErrors(t *testing.T) {
	badDecode := func() error {
		_, err := compso.New(compso.WithSeed(1)).Decompress([]byte{0x00, 0x01, 0x02})
		return err
	}
	cases := []struct {
		name     string
		err      func() error
		sentinel error
	}{
		{"unknown codec", func() error { _, err := compso.CodecByName("nope"); return err }, compso.ErrUnknownCodec},
		{"unknown model", func() error { _, err := compso.ModelByName("nope"); return err }, compso.ErrUnknownModel},
		{"unknown platform", func() error { _, err := compso.PlatformByName("nope"); return err }, compso.ErrUnknownPlatform},
		{"corrupt blob", badDecode, compso.ErrCorruptBlob},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, sentinel) = false", err)
			}
		})
	}
	// Known names must not error.
	if _, err := compso.CodecByName("ANS"); err != nil {
		t.Fatal(err)
	}
	if _, err := compso.ModelByName("ResNet-50"); err != nil {
		t.Fatal(err)
	}
	if _, err := compso.PlatformByName("slingshot10"); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeProxies constructs every proxy task builder once.
func TestFacadeProxies(t *testing.T) {
	rng := compso.NewRand(3)
	tasks := []*compso.ProxyTask{
		compso.ProxyResNet(rng, 3),
		compso.ProxyMaskRCNN(rng, 3),
		compso.ProxyBERT(rng, 3),
		compso.ProxyGPT(rng, 3),
	}
	squad, _ := compso.ProxySQuAD(rng, 3)
	tasks = append(tasks, squad)
	for i, task := range tasks {
		if task == nil || task.Model == nil || len(task.Model.Params()) == 0 {
			t.Fatalf("proxy %d has no parameters", i)
		}
	}
}

// TestFacadeSaveLoadModel round-trips a model checkpoint.
func TestFacadeSaveLoadModel(t *testing.T) {
	a := compso.ProxyResNet(compso.NewRand(4), 4)
	b := compso.ProxyResNet(compso.NewRand(5), 5) // different init
	var buf bytes.Buffer
	if err := compso.SaveModel(a.Model, &buf); err != nil {
		t.Fatal(err)
	}
	if err := compso.LoadModel(b.Model, &buf); err != nil {
		t.Fatal(err)
	}
	ap, bp := a.Model.Params(), b.Model.Params()
	for i := range ap {
		for j := range ap[i].W.Data {
			if ap[i].W.Data[j] != bp[i].W.Data[j] {
				t.Fatal("loaded parameters differ from saved")
			}
		}
	}
}

// TestFacadeObservedTraining runs a small instrumented training job through
// the facade: TrainConfig.Obs is populated, the result carries a snapshot,
// the trace exports and validates, and the collective span sums reconcile
// with the AlgSeconds attribution.
func TestFacadeObservedTraining(t *testing.T) {
	sched := &compso.StepLR{BaseLR: 0.03, Drops: []int{10}, Gamma: 0.1}
	rec := compso.NewObserver(compso.WithMaxSpans(1<<16), compso.WithTransferSpans(true))
	const workers = 4
	res, err := compso.Train(compso.TrainConfig{
		BuildTask: func(rng *rand.Rand) *compso.ProxyTask {
			return compso.ProxyResNet(rng, 21)
		},
		Workers:  workers,
		Platform: mustPlatform(t, "slingshot10"),
		Iters:    8,
		Seed:     21,
		Schedule: sched,
		UseKFAC:  true,
		KFAC:     compso.DefaultKFAC(),
		NewCompressor: func(rank int) compso.Compressor {
			return compso.New(compso.WithSeed(int64(rank) + 30))
		},
		Controller:   compso.NewController(sched, 8),
		AggregationM: 2,
		Obs:          rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("no metrics snapshot on result")
	}
	snap := res.Metrics
	for _, cat := range []obs.Category{obs.CatStep, obs.CatPhase, obs.CatCollective, obs.CatCompress, obs.CatPrecondition} {
		if snap.SpanSeconds()[cat] <= 0 && len(snap.SpansFor(cat)) == 0 {
			t.Fatalf("no spans in category %q (have %v)", cat, snap.Categories())
		}
	}
	perWorker := map[string]float64{}
	for k, v := range snap.AlgSeconds() {
		perWorker[k] = v / workers
	}
	if err := obs.ReconcileAlgSeconds(perWorker, res.AlgSeconds, 0.01); err != nil {
		t.Fatalf("reconciliation: %v", err)
	}
	if snap.Counters["train/steps"] != 8 {
		t.Fatalf("train/steps = %g", snap.Counters["train/steps"])
	}
	var buf bytes.Buffer
	if err := snap.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace validation: %v", err)
	}
	buf.Reset()
	if err := snap.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty metrics JSON")
	}
}

// TestFacadeCrashRecovery drives the fault-tolerance surface end to end
// through the facade: a run that loses a worker mid-step recovers from its
// checkpoint directory and reproduces the uninterrupted twin bit-exactly,
// LatestCheckpoint finds the newest complete file, and Checkpoint.Resume warm-starts
// a fresh process from it to the same final loss.
func TestFacadeCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	base := func() compso.TrainConfig {
		return compso.TrainConfig{
			BuildTask: func(rng *rand.Rand) *compso.ProxyTask {
				return compso.ProxyResNet(rng, 51)
			},
			Workers:  4,
			Platform: mustPlatform(t, "slingshot10"),
			Iters:    8,
			Seed:     51,
			Schedule: &compso.StepLR{BaseLR: 0.03, Drops: []int{6}, Gamma: 0.1},
			NewCompressor: func(rank int) compso.Compressor {
				return compso.New(compso.WithSeed(51))
			},
			AggregationM: 2,
		}
	}
	plainCfg := base()
	plainCfg.Checkpoint.Interval = 3
	plain, err := compso.Train(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	crashCfg := base()
	crashCfg.Checkpoint = compso.CheckpointConfig{Interval: 3, Dir: dir, MaxRestarts: 2}
	crashCfg.Fault = &compso.FaultPlan{Seed: 7, Crashes: []compso.WorkerCrash{
		{Rank: 1, Point: compso.CrashMidStep, Step: 5},
	}}
	crashed, err := compso.Train(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Restarts != 1 {
		t.Fatalf("got %d restarts, want 1", crashed.Restarts)
	}
	if crashed.FinalLoss != plain.FinalLoss || crashed.MeanCR != plain.MeanCR {
		t.Fatalf("recovered run diverged: loss %v vs %v, CR %v vs %v",
			crashed.FinalLoss, plain.FinalLoss, crashed.MeanCR, plain.MeanCR)
	}
	latest, err := compso.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest == "" {
		t.Fatal("no checkpoint found in directory")
	}
	resumeCfg := base()
	resumeCfg.Checkpoint = compso.CheckpointConfig{Interval: 3, Resume: latest}
	resumed, err := compso.Train(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.FinalLoss != plain.FinalLoss {
		t.Fatalf("resumed run diverged: loss %v vs %v", resumed.FinalLoss, plain.FinalLoss)
	}
}

// TestFacadeObserverDisabledIsInert confirms the nil-observer contract at
// the facade level: a run with and without an observer produces bit-equal
// convergence results.
func TestFacadeObserverDisabledIsInert(t *testing.T) {
	run := func(rec *compso.Observer) *compso.TrainResult {
		sched := &compso.StepLR{BaseLR: 0.03, Drops: []int{10}, Gamma: 0.1}
		res, err := compso.Train(compso.TrainConfig{
			BuildTask: func(rng *rand.Rand) *compso.ProxyTask {
				return compso.ProxyResNet(rng, 31)
			},
			Workers:  4,
			Platform: mustPlatform(t, "slingshot10"),
			Iters:    6,
			Seed:     31,
			Schedule: sched,
			UseKFAC:  true,
			KFAC:     compso.DefaultKFAC(),
			NewCompressor: func(rank int) compso.Compressor {
				return compso.New(compso.WithSeed(int64(rank) + 40))
			},
			AggregationM: 2,
			Obs:          rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(compso.NewObserver(compso.WithTransferSpans(true)))
	if !reflect.DeepEqual(plain.Losses, observed.Losses) {
		t.Fatalf("observer changed losses: %v vs %v", plain.Losses, observed.Losses)
	}
	for k, v := range plain.AlgSeconds {
		if math.Abs(observed.AlgSeconds[k]-v) > 1e-12 {
			t.Fatalf("observer changed AlgSeconds[%s]: %g vs %g", k, v, observed.AlgSeconds[k])
		}
	}
}
