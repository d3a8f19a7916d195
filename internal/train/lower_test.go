package train

import (
	"fmt"
	"reflect"
	"testing"

	"compso/internal/cluster"
	"compso/internal/collective"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/des"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/obs"
	"compso/internal/xrand"
)

// TestLoweredStepMatchesLive is the lowering's differential: the stage
// table the trainer runs, lowered for the same Config and replayed on a
// des.World, against the goroutine train.Run.
//
//   - kfac and sgd rows ship raw FP32 frames, whose sizes are
//     deterministic, so the whole timeline must match bit for bit:
//     per-rank clocks, Stats and AlgSeconds, ScheduleSeconds, WireBytes
//     and Collectives, and OverlapOf on the overlap rows.
//   - compso rows ship data-dependent blobs, so the collective sequence
//     must match: step, op, category, and the all-reduce bytes.
//   - engines rows replay BuildCommProgram's ResNet-50 + compso program at
//     1/64 payload scale on both engines, bit for bit.
func TestLoweredStepMatchesLive(t *testing.T) {
	for _, p := range []int{3, 4, 8} {
		for _, overlap := range []bool{false, true} {
			for _, m := range []int{1, 2} {
				for _, statFreq := range []int{1, 2} {
					cfg := lowerConfig(p, overlap)
					cfg.UseKFAC, cfg.AggregationM, cfg.StatFreq = true, m, statFreq
					t.Run(fmt.Sprintf("kfac/p=%d/%s/m=%d/stat=%d", p, schedName(overlap), m, statFreq), func(t *testing.T) {
						t.Parallel()
						matchLive(t, cfg)
					})
				}
			}
		}
	}
	for _, overlap := range []bool{false, true} {
		t.Run("sgd/p=4/"+schedName(overlap), func(t *testing.T) {
			t.Parallel()
			matchLive(t, lowerConfig(4, overlap))
		})
		t.Run("compso/p=4/"+schedName(overlap), func(t *testing.T) {
			t.Parallel()
			cfg := lowerConfig(4, overlap)
			cfg.UseKFAC, cfg.AggregationM = true, 2
			cfg.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 31) }
			matchCollectives(t, cfg)
		})
	}
	for _, p := range []int{3, 8} {
		t.Run(fmt.Sprintf("engines/p=%d", p), func(t *testing.T) {
			t.Parallel()
			prog, _, err := BuildCommProgram(CommSimConfig{Model: "ResNet-50", Compressor: "compso", Steps: 4, KFAC: true, Seed: 17,
				ElemScale: 1.0 / 64}, p)
			if err != nil {
				t.Fatal(err)
			}
			c := cluster.New(cluster.Platform1(), p)
			rec := obs.NewRecorder()
			c.Observe(rec)
			ref := des.RunOnCluster(c, prog)[0].Ledger()
			w := des.NewWorld(cluster.Platform1(), p)
			defer w.Release()
			des.RunOnWorld(w, prog)
			sameLedger(t, w, ref, false)
			if got, want := float64(w.WireBytes()), rec.Counter("wire/total/bytes").Value(); got != want {
				t.Errorf("wire bytes %v, goroutine engine counter %v", got, want)
			}
		})
	}
}

// lowerConfig is a three-step proxy run: StatFreq 2 and InvFreq 2 then
// skip the factor and eigen stages on step 1, and an 8 KB bucket cap
// splits the gradient into several buckets under overlap.
func lowerConfig(p int, overlap bool) Config {
	cfg := baseConfig(3)
	cfg.Workers = p
	cfg.Overlap = overlap
	cfg.FusionBytes = 8 << 10
	cfg.KFAC = kfac.DefaultConfig()
	cfg.KFAC.InvFreq = 2
	cfg.EvalSize = 8
	return cfg
}

// proxyModel is the step model of cfg's proxy task: its gradient tensors,
// and per K-FAC layer the seconds the live pipeline charges and its raw
// FP32 frame bytes.
func proxyModel(cfg Config, compressed bool) StepModel {
	task := cfg.BuildTask(xrand.NewSeeded(cfg.Seed))
	var m StepModel
	if compressed {
		m.Pipeline = &fused
	}
	for _, pm := range task.Model.Params() {
		m.Grads = append(m.Grads, len(pm.Grad.Data))
	}
	if !cfg.UseKFAC {
		return m
	}
	k, cm := kfac.New(task.Model, cfg.KFAC), modelzoo.A100Compute()
	for li := range k.NumLayers() {
		da, dg := k.FactorDims(li)
		n := k.LayerGradSize(li)
		// The live loop's charges (tele.eigen, tele.precondition).
		a, g := float64(da), float64(dg)
		m.Layers = append(m.Layers, LayerModel{n, 9 * (a*a*a + g*g*g) / cm.EigFlops, 4 * (a*a*g + a*g*g) / cm.Flops, 4 * n})
	}
	m.CovElems = k.CovarianceLen()
	return m
}

func lowered(t *testing.T, cfg Config, compressed bool) des.Program {
	t.Helper()
	prog, err := Lower(cfg, proxyModel(cfg, compressed))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// matchLive runs cfg live and replays its lowering; the two ledgers must
// agree bit for bit.
func matchLive(t *testing.T, cfg Config) {
	_, live, err := runAttempt(cfg.withDefaults(), 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := des.NewWorld(cfg.Platform, cfg.Workers)
	defer w.Release()
	des.RunOnWorld(w, lowered(t, cfg, false))
	sameLedger(t, w, live, cfg.Overlap)
}

// sameLedger compares a World's ledger with a goroutine run's.
func sameLedger(t *testing.T, w *des.World, ref *cluster.Ledger, overlap bool) {
	t.Helper()
	for r := range ref.Size() {
		if got, want := w.TimeOf(r), ref.TimeOf(r); got != want {
			t.Errorf("rank %d: time %v, goroutine %v", r, got, want)
		}
		if got, want := w.StatsOf(r), ref.StatsOf(r); !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: stats %v, goroutine %v", r, got, want)
		}
		if got, want := w.AlgSecondsOf(r), ref.AlgSecondsOf(r); !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: AlgSeconds %v, goroutine %v", r, got, want)
		}
		if !overlap {
			continue
		}
		exposed, total := w.OverlapOf(r)
		refExposed, refTotal := ref.OverlapOf(r)
		if exposed != refExposed || total != refTotal {
			t.Errorf("rank %d: OverlapOf (%v, %v), goroutine (%v, %v)", r, exposed, total, refExposed, refTotal)
		}
	}
	meas, pred := w.ScheduleSeconds()
	refMeas, refPred := ref.ScheduleSeconds()
	if meas != refMeas || pred != refPred {
		t.Errorf("schedule seconds (%v, %v), goroutine (%v, %v)", meas, pred, refMeas, refPred)
	}
	if w.WireBytes() != ref.WireBytes() || w.Collectives() != ref.Collectives() {
		t.Errorf("wire bytes, collectives %d, %d; goroutine %d, %d", w.WireBytes(), w.Collectives(), ref.WireBytes(), ref.Collectives())
	}
}

// matchCollectives runs cfg live with a recorder and requires rank 0's
// collectives, in wait order, to be the lowered program's.
func matchCollectives(t *testing.T, cfg Config) {
	cfg.Obs = obs.NewRecorder()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[obs.SpanID]obs.Span{}
	for _, sp := range res.Metrics.Spans {
		byID[sp.ID] = sp
	}
	var live []string
	for _, sp := range res.Metrics.SpansFor(obs.CatCollective) {
		if sp.Rank != 0 {
			continue
		}
		step := byID[sp.Parent]
		for step.Cat != obs.CatStep {
			step = byID[step.Parent]
		}
		live = append(live, collectiveKey(step.Attrs.Step, sp.Name, sp.Attrs.Label, int(sp.Attrs.BytesIn)))
	}

	var want []string
	step, launched := 0, map[int]des.Op{}
	for _, op := range lowered(t, cfg, true) {
		switch op.Kind {
		case des.KindSetStep:
			step = op.Step
		case des.KindLaunch:
			launched[op.ID] = op
		case des.KindWait:
			op = launched[op.ID]
			op.Kind = op.Of
		}
		switch op.Kind {
		case des.KindAllReduce:
			want = append(want, collectiveKey(step, collective.OpAllReduce, op.Category, 4*op.Elems))
		case des.KindAllGather:
			want = append(want, collectiveKey(step, collective.OpAllGather, op.Category, 0))
		}
	}
	if !reflect.DeepEqual(live, want) {
		t.Errorf("live collectives\n%v\nlowered\n%v", live, want)
	}
}

// collectiveKey names one collective: all-gather bytes are data-dependent
// and left out.
func collectiveKey(step int, op, category string, bytes int) string {
	if op == collective.OpAllGather {
		bytes = 0
	}
	return fmt.Sprintf("step %d %s %s %d", step, op, category, bytes)
}
