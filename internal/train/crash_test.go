package train

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compso/internal/ckpt"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/fault"
	"compso/internal/kfac"
	"compso/internal/obs"
	"compso/internal/pool"
)

// The crash-recovery bit-identity contract (ckpt.go): a run that loses a
// worker at step k and resumes from the last checkpoint must produce
// exactly — not approximately — the final losses, accuracies, model
// parameters, mean compression ratio and wire counters of an uninterrupted
// run with the same checkpoint cadence. These tests enforce it across the
// optimizer × compressor × overlap matrix and every crash point.

// crashPlan wraps one exact-mode crash declaration into a fault plan.
func crashPlan(c fault.WorkerCrash) *fault.Plan {
	return &fault.Plan{Seed: 7, Crashes: []fault.WorkerCrash{c}}
}

// runCrashPair runs cfg twice with the same checkpoint cadence — once with
// the crash plan, once undisturbed — and returns both results plus their
// recorders for counter comparison.
func runCrashPair(t *testing.T, cfg Config, plan *fault.Plan, interval int) (crashed, plain *Result, crashRec, plainRec *obs.Recorder) {
	t.Helper()
	a := cfg
	a.Obs = obs.NewRecorder()
	a.Fault = plan
	a.Checkpoint.Interval = interval
	crashed, err := Run(a)
	if err != nil {
		t.Fatalf("crash run: %v", err)
	}
	b := cfg
	b.Obs = obs.NewRecorder()
	b.Checkpoint.Interval = interval
	plain, err = Run(b)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	return crashed, plain, a.Obs, b.Obs
}

// assertBitIdentical compares every resumable observable exactly. Losses
// and parameters are float64 — equality here means bit-identity, not a
// tolerance.
func assertBitIdentical(t *testing.T, crashed, plain *Result, crashRec, plainRec *obs.Recorder) {
	t.Helper()
	if len(crashed.Iterations) != len(plain.Iterations) {
		t.Fatalf("eval points: crashed %v, plain %v", crashed.Iterations, plain.Iterations)
	}
	for i := range plain.Iterations {
		if crashed.Iterations[i] != plain.Iterations[i] {
			t.Fatalf("eval iteration %d: crashed %d, plain %d", i, crashed.Iterations[i], plain.Iterations[i])
		}
		if crashed.Losses[i] != plain.Losses[i] {
			t.Fatalf("loss at eval %d: crashed %v, plain %v", i, crashed.Losses[i], plain.Losses[i])
		}
	}
	for i := range plain.Accuracies {
		if crashed.Accuracies[i] != plain.Accuracies[i] {
			t.Fatalf("accuracy at eval %d: crashed %v, plain %v", i, crashed.Accuracies[i], plain.Accuracies[i])
		}
	}
	if crashed.FinalLoss != plain.FinalLoss || crashed.FinalAcc != plain.FinalAcc {
		t.Fatalf("final: crashed (%v, %v), plain (%v, %v)",
			crashed.FinalLoss, crashed.FinalAcc, plain.FinalLoss, plain.FinalAcc)
	}
	if crashed.MeanCR != plain.MeanCR {
		t.Fatalf("MeanCR: crashed %v, plain %v", crashed.MeanCR, plain.MeanCR)
	}
	cp, pp := crashed.Model.Params(), plain.Model.Params()
	if len(cp) != len(pp) {
		t.Fatalf("parameter count: crashed %d, plain %d", len(cp), len(pp))
	}
	for i := range pp {
		for j := range pp[i].W.Data {
			if cp[i].W.Data[j] != pp[i].W.Data[j] {
				t.Fatalf("parameter %s[%d]: crashed %v, plain %v",
					pp[i].Name, j, cp[i].W.Data[j], pp[i].W.Data[j])
			}
		}
	}
	names := plainRec.CounterNames("wire/")
	if len(names) == 0 {
		t.Fatal("no wire counters recorded")
	}
	for _, name := range append(names, "train/steps") {
		if got, want := crashRec.Counter(name).Value(), plainRec.Counter(name).Value(); got != want {
			t.Fatalf("counter %s: crashed %v, plain %v", name, got, want)
		}
	}
}

// TestCrashResumeBitIdentityMatrix is the headline guarantee: every cell of
// {SGD, K-FAC} × {COMPSO stream, PowerSGD+EF} × {sequential, overlap}
// crashes a worker mid-run and must finish bit-identical to the
// uninterrupted run. Crash points rotate across cells so step-start,
// mid-step and mid-collective unwinds all get coverage.
func TestCrashResumeBitIdentityMatrix(t *testing.T) {
	t.Parallel()
	newCOMPSO := func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 99) }
	// Ring-mode PowerSGD must share one seed across ranks so the replicated
	// factor state agrees (the AllReducible contract); the per-rank EF
	// residuals still differ and are checkpointed per rank.
	newPowerEF := func(rank int) compress.Compressor {
		return compress.NewErrorFeedback(compress.NewPowerSGD(2, 31))
	}
	newLayerPowerEF := func(rank, layer int) compress.Compressor {
		return compress.NewErrorFeedback(compress.NewPowerSGD(2, 31+int64(layer)))
	}
	cells := []struct {
		name  string
		setup func(*Config)
		crash fault.WorkerCrash
	}{
		{"sgd/compso/seq", func(c *Config) {
			c.NewCompressor = newCOMPSO
		}, fault.WorkerCrash{Rank: 1, Point: fault.CrashMidStep, Step: 6}},
		{"sgd/compso/overlap", func(c *Config) {
			c.NewCompressor = newCOMPSO
			c.Overlap = true
		}, fault.WorkerCrash{Rank: 2, Point: fault.CrashAtStepStart, Step: 7}},
		{"sgd/power-ef/seq", func(c *Config) {
			c.NewCompressor = newPowerEF
		}, fault.WorkerCrash{Rank: 1, Point: fault.CrashMidCollective, Step: 6, CollSite: 1}},
		{"sgd/power-ef/overlap", func(c *Config) {
			c.NewCompressor = newPowerEF
			c.Overlap = true
		}, fault.WorkerCrash{Rank: 3, Point: fault.CrashMidStep, Step: 5}},
		{"kfac/compso/seq", func(c *Config) {
			c.UseKFAC = true
			c.KFAC = kfac.DefaultConfig()
			c.StatFreq = 5
			c.NewCompressor = newCOMPSO
		}, fault.WorkerCrash{Rank: 1, Point: fault.CrashMidCollective, Step: 7, CollSite: 2}},
		{"kfac/compso/overlap", func(c *Config) {
			c.UseKFAC = true
			c.KFAC = kfac.DefaultConfig()
			c.StatFreq = 5
			c.NewCompressor = newCOMPSO
			c.Overlap = true
		}, fault.WorkerCrash{Rank: 2, Point: fault.CrashMidStep, Step: 7}},
		{"kfac/power-ef-layer/seq", func(c *Config) {
			c.UseKFAC = true
			c.KFAC = kfac.DefaultConfig()
			c.NewLayerCompressor = newLayerPowerEF
		}, fault.WorkerCrash{Rank: 1, Point: fault.CrashMidStep, Step: 6}},
		{"kfac/power-ef-layer/overlap", func(c *Config) {
			c.UseKFAC = true
			c.KFAC = kfac.DefaultConfig()
			c.NewLayerCompressor = newLayerPowerEF
			c.Overlap = true
		}, fault.WorkerCrash{Rank: 3, Point: fault.CrashMidCollective, Step: 6, CollSite: 3}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cfg := baseConfig(12)
			cfg.EvalEvery = 4
			cell.setup(&cfg)
			crashed, plain, crec, prec := runCrashPair(t, cfg, crashPlan(cell.crash), 3)
			if crashed.Restarts != 1 {
				t.Fatalf("restarts: got %d, want 1", crashed.Restarts)
			}
			if crashed.FaultEvents["worker_crash"] != 1 || crashed.FaultEvents["restores"] != 1 {
				t.Fatalf("fault events: %v", crashed.FaultEvents)
			}
			assertBitIdentical(t, crashed, plain, crec, prec)
			if crec.Counter("fault/worker_crash").Value() != 1 ||
				crec.Counter("ckpt/restores").Value() != 1 {
				t.Fatal("fault/worker_crash and ckpt/restores counters not both 1")
			}
			// The crash run saves at least the plain run's checkpoints (more
			// when the resume replays across a checkpoint boundary).
			if c, p := crec.Counter("ckpt/saves").Value(), prec.Counter("ckpt/saves").Value(); p <= 0 || c < p {
				t.Fatalf("ckpt/saves: crashed %v, plain %v", c, p)
			}
		})
	}
}

// TestCrashResumeKFACCachesCarryEigens pins the owner-local decomposition
// cache leg: with StatFreq 5 the eigendecompositions from step 5 are only
// in the per-rank caches when the step-6 checkpoint is taken, and steps
// 6–9 of the resumed run precondition with the restored caches. A failure
// to restore them would change every preconditioned gradient.
func TestCrashResumeKFACCachesCarryEigens(t *testing.T) {
	t.Parallel()
	cfg := baseConfig(10)
	cfg.EvalEvery = 5
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.StatFreq = 5
	crash := fault.WorkerCrash{Rank: 2, Point: fault.CrashMidStep, Step: 7}
	crashed, plain, crec, prec := runCrashPair(t, cfg, crashPlan(crash), 3)
	if crashed.Restarts != 1 {
		t.Fatalf("restarts: got %d, want 1", crashed.Restarts)
	}
	assertBitIdentical(t, crashed, plain, crec, prec)
}

// TestCrashRepeatedAcrossIncarnations drives the Every/Times repeat mode:
// the rank dies at step 4 of incarnation 0 and step 7 of incarnation 1, so
// the run recovers twice and must still finish bit-identical.
func TestCrashRepeatedAcrossIncarnations(t *testing.T) {
	t.Parallel()
	cfg := baseConfig(12)
	cfg.EvalEvery = 4
	cfg.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 99) }
	crash := fault.WorkerCrash{Rank: 1, Point: fault.CrashMidStep, Step: 4, Every: 3, Times: 2}
	crashed, plain, crec, prec := runCrashPair(t, cfg, crashPlan(crash), 3)
	if crashed.Restarts != 2 {
		t.Fatalf("restarts: got %d, want 2", crashed.Restarts)
	}
	if crashed.FaultEvents["worker_crash"] != 2 || crashed.FaultEvents["restores"] != 2 {
		t.Fatalf("fault events: %v", crashed.FaultEvents)
	}
	assertBitIdentical(t, crashed, plain, crec, prec)
}

// TestCrashBeforeFirstCheckpointRestartsFromScratch: a crash that beats the
// first save has no restore point — the recovery restarts from scratch
// (counters reset, no "restores" tally) and must still match the
// uninterrupted run exactly.
func TestCrashBeforeFirstCheckpointRestartsFromScratch(t *testing.T) {
	t.Parallel()
	cfg := baseConfig(8)
	cfg.EvalEvery = 4
	cfg.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 99) }
	crash := fault.WorkerCrash{Rank: 2, Point: fault.CrashAtStepStart, Step: 1}
	crashed, plain, crec, prec := runCrashPair(t, cfg, crashPlan(crash), 5)
	if crashed.Restarts != 1 {
		t.Fatalf("restarts: got %d, want 1", crashed.Restarts)
	}
	if crashed.FaultEvents["worker_crash"] != 1 || crashed.FaultEvents["restores"] != 0 {
		t.Fatalf("fault events: %v", crashed.FaultEvents)
	}
	assertBitIdentical(t, crashed, plain, crec, prec)
}

// TestCrashWithoutCheckpointingStillRecovers: Interval 0 disables saves
// entirely; a crash then recovers by scratch restart alone.
func TestCrashWithoutCheckpointingStillRecovers(t *testing.T) {
	cfg := baseConfig(6)
	cfg.EvalEvery = 3
	cfg.Obs = obs.NewRecorder()
	cfg.Fault = crashPlan(fault.WorkerCrash{Rank: 1, Point: fault.CrashMidStep, Step: 2})
	crashed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Restarts != 1 || crashed.FaultEvents["restores"] != 0 {
		t.Fatalf("restarts %d, events %v", crashed.Restarts, crashed.FaultEvents)
	}
	plainCfg := baseConfig(6)
	plainCfg.EvalEvery = 3
	plain, err := Run(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.FinalLoss != plain.FinalLoss {
		t.Fatalf("final loss: crashed %v, plain %v", crashed.FinalLoss, plain.FinalLoss)
	}
}

// TestCrashMaxRestartsExhausted: a rank that dies on every incarnation
// exhausts the restart budget and surfaces the loss as an error instead of
// looping forever.
func TestCrashMaxRestartsExhausted(t *testing.T) {
	cfg := baseConfig(10)
	cfg.Fault = crashPlan(fault.WorkerCrash{Rank: 1, Point: fault.CrashMidStep, Rate: 1.0})
	cfg.Checkpoint = CheckpointConfig{Interval: 3, MaxRestarts: 2}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run with an always-crashing rank succeeded")
	}
	if !strings.Contains(err.Error(), "lost") {
		t.Fatalf("error does not describe the worker loss: %v", err)
	}
}

// TestCrashRecoveryLeaksNoPooledBuffers: the worker-loss unwind crosses
// collectives with pooled staging buffers in flight (fused async buckets
// under overlap, flat all-reduce staging otherwise). Debug tracking must
// see every buffer returned once the run finishes.
func TestCrashRecoveryLeaksNoPooledBuffers(t *testing.T) {
	defer pool.SetDebug(pool.DebugEnabled())
	pool.SetDebug(true)
	for _, overlap := range []bool{false, true} {
		cfg := baseConfig(8)
		cfg.EvalEvery = 4
		cfg.Overlap = overlap
		cfg.UseKFAC = true
		cfg.KFAC = kfac.DefaultConfig()
		cfg.Fault = crashPlan(fault.WorkerCrash{Rank: 1, Point: fault.CrashMidCollective, Step: 4, CollSite: 3})
		cfg.Checkpoint = CheckpointConfig{Interval: 3}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		if res.Restarts != 1 {
			t.Fatalf("overlap=%v: restarts %d, want 1", overlap, res.Restarts)
		}
		if s := pool.Stats(); s.Live != 0 {
			t.Fatalf("overlap=%v: %d pooled buffers still live after the run", overlap, s.Live)
		}
		// Evaluation works in arena storage too: an undisturbed run that
		// evaluates after every step must hand all of it back.
		cfg.Fault, cfg.Checkpoint, cfg.EvalEvery = nil, CheckpointConfig{}, 1
		if res, err = Run(cfg); err != nil || len(res.Losses) != cfg.Iters {
			t.Fatalf("overlap=%v, EvalEvery=1: %d evaluations, error %v", overlap, len(res.Losses), err)
		}
		if s := pool.Stats(); s.Live != 0 {
			t.Fatalf("overlap=%v, EvalEvery=1: %d pooled buffers still live after the run", overlap, s.Live)
		}
	}
}

// TestCheckpointDirPersistsAndRecovers: with a directory configured, saves
// land as step-numbered files, the crash recovery restores from the newest
// complete file, and the results stay bit-identical.
func TestCheckpointDirPersistsAndRecovers(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := baseConfig(12)
	cfg.EvalEvery = 4
	cfg.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 99) }
	cfg.Checkpoint.Dir = dir
	crash := fault.WorkerCrash{Rank: 1, Point: fault.CrashMidStep, Step: 7}
	crashed, plain, crec, prec := runCrashPair(t, cfg, crashPlan(crash), 3)
	if crashed.Restarts != 1 {
		t.Fatalf("restarts: got %d, want 1", crashed.Restarts)
	}
	assertBitIdentical(t, crashed, plain, crec, prec)
	for _, step := range []int{3, 6, 9, 12} {
		if _, err := os.Stat(filepath.Join(dir, ckpt.FileName(step))); err != nil {
			t.Fatalf("missing checkpoint file for step %d: %v", step, err)
		}
	}
	path, err := ckpt.LatestPath(dir)
	if err != nil || filepath.Base(path) != ckpt.FileName(12) {
		t.Fatalf("LatestPath = %q, %v", path, err)
	}
}

// TestResumeFromCheckpointFile: a fresh Run resuming from a mid-run
// checkpoint file must land on exactly the uninterrupted run's results —
// the externally-driven restart workflow (compso-train -resume).
func TestResumeFromCheckpointFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	full := baseConfig(12)
	full.EvalEvery = 4
	full.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 99) }
	full.Obs = obs.NewRecorder()
	full.Checkpoint = CheckpointConfig{Interval: 3, Dir: dir}
	want, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}

	resumed := baseConfig(12)
	resumed.EvalEvery = 4
	resumed.NewCompressor = full.NewCompressor
	resumed.Obs = obs.NewRecorder()
	resumed.Checkpoint = CheckpointConfig{
		Interval: 3, Dir: t.TempDir(),
		Resume: filepath.Join(dir, ckpt.FileName(6)),
	}
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalLoss != want.FinalLoss || got.MeanCR != want.MeanCR {
		t.Fatalf("resumed final (%v, CR %v), full (%v, CR %v)",
			got.FinalLoss, got.MeanCR, want.FinalLoss, want.MeanCR)
	}
	for _, name := range append(resumed.Obs.CounterNames("wire/"), "train/steps") {
		if g, w := resumed.Obs.Counter(name).Value(), full.Obs.Counter(name).Value(); g != w {
			t.Fatalf("counter %s: resumed %v, full %v", name, g, w)
		}
	}
	cp, pp := got.Model.Params(), want.Model.Params()
	for i := range pp {
		for j := range pp[i].W.Data {
			if cp[i].W.Data[j] != pp[i].W.Data[j] {
				t.Fatalf("parameter %s[%d] diverged after file resume", pp[i].Name, j)
			}
		}
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint must not restore into a
// run whose float expressions it does not describe.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(6)
	cfg.EvalEvery = 3
	cfg.Checkpoint = CheckpointConfig{Interval: 3, Dir: dir}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ckpt.FileName(6))

	bad := baseConfig(6)
	bad.EvalEvery = 3
	bad.Seed = 43
	bad.Checkpoint = CheckpointConfig{Interval: 3, Resume: path}
	if _, err := Run(bad); err == nil {
		t.Fatal("resume with a different seed accepted")
	}
	bad2 := baseConfig(6)
	bad2.EvalEvery = 3
	bad2.UseKFAC = true
	bad2.KFAC = kfac.DefaultConfig()
	bad2.Checkpoint = CheckpointConfig{Interval: 3, Resume: path}
	if _, err := Run(bad2); err == nil {
		t.Fatal("resume of an SGD checkpoint into a K-FAC run accepted")
	}
	bad3 := baseConfig(6)
	bad3.EvalEvery = 3
	bad3.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 99) }
	bad3.Checkpoint = CheckpointConfig{Interval: 3, Resume: path}
	if _, err := Run(bad3); err == nil {
		t.Fatal("resume of an uncompressed checkpoint into a compressed run accepted")
	}
}

// TestCrashResumeWithControllerAndFactors exercises the widest COMPSO
// configuration through a crash: adaptive error-bound controller plus
// compressed factor exchange, resumed mid-schedule.
func TestCrashResumeWithControllerAndFactors(t *testing.T) {
	t.Parallel()
	iters := 12
	cfg := baseConfig(iters)
	cfg.EvalEvery = 4
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 99) }
	cfg.Controller = compso.DefaultController(cfg.Schedule, iters)
	cfg.CompressFactors = true
	crash := fault.WorkerCrash{Rank: 2, Point: fault.CrashMidStep, Step: 8}
	crashed, plain, crec, prec := runCrashPair(t, cfg, crashPlan(crash), 4)
	if crashed.Restarts != 1 {
		t.Fatalf("restarts: got %d, want 1", crashed.Restarts)
	}
	assertBitIdentical(t, crashed, plain, crec, prec)
}

// TestUncompressedOverlapCrashAtAsyncLaunch kills a worker at the entry of
// one of the fused-bucket async all-reduces — the unwind path that crosses
// launchGradBuckets with staged pooled buffers in flight.
func TestUncompressedOverlapCrashAtAsyncLaunch(t *testing.T) {
	cfg := baseConfig(8)
	cfg.EvalEvery = 4
	cfg.Overlap = true
	crash := fault.WorkerCrash{Rank: 1, Point: fault.CrashMidCollective, Step: 4, CollSite: 1}
	crashed, plain, crec, prec := runCrashPair(t, cfg, crashPlan(crash), 3)
	if crashed.Restarts != 1 {
		t.Fatalf("restarts: got %d, want 1", crashed.Restarts)
	}
	assertBitIdentical(t, crashed, plain, crec, prec)
}

// TestCrashUnwindClosesSpans: a worker loss unwinds every rank out of the
// middle of a step, and the recovered run still returns the whole trace.
// The victim dies entering the step's second collective — so the crashed
// step already has a closed child phase — and every step and phase span,
// the abandoned ones included, must end no earlier than its latest child.
func TestCrashUnwindClosesSpans(t *testing.T) {
	cfg := baseConfig(8)
	cfg.BuildTask = smallResNet
	cfg.EvalEvery = 4
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.Obs = obs.NewRecorder()
	cfg.Fault = crashPlan(fault.WorkerCrash{Rank: 1, Point: fault.CrashMidCollective, Step: 4, CollSite: 2})
	cfg.Checkpoint = CheckpointConfig{Interval: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts: got %d, want 1", res.Restarts)
	}
	lastChild := map[obs.SpanID]float64{}
	for _, sp := range res.Metrics.Spans {
		lastChild[sp.Parent] = max(lastChild[sp.Parent], sp.End)
	}
	for _, sp := range res.Metrics.Spans {
		if (sp.Cat == obs.CatStep || sp.Cat == obs.CatPhase) && sp.End < lastChild[sp.ID] {
			t.Fatalf("rank %d %s span %q ends at %v, before its last child at %v",
				sp.Rank, sp.Cat, sp.Name, sp.End, lastChild[sp.ID])
		}
	}
}
