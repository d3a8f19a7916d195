package train

import (
	"fmt"
	"reflect"
	"testing"

	"compso/internal/cluster"
	"compso/internal/des"
	"compso/internal/obs"
)

func TestBuildCommProgramKFAC(t *testing.T) {
	cfg := CommSimConfig{Model: "ResNet-50", Compressor: "compso", Steps: 6, KFAC: true, Seed: 5}
	prog, info, err := BuildCommProgram(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) == 0 || info.Ops != len(prog) {
		t.Fatalf("program length %d, info.Ops %d", len(prog), info.Ops)
	}
	if info.Ratio <= 1 {
		t.Fatalf("compso calibration ratio %v, want > 1", info.Ratio)
	}
	if info.BlobBytes <= 0 || info.BlobBytes >= 4*info.GradElems {
		t.Fatalf("blob %d bytes for %d-elem gradient", info.BlobBytes, info.GradElems)
	}
	cats := map[string]bool{}
	for _, op := range prog {
		cats[op.Category] = true
	}
	for _, want := range []string{"fwd-bwd", "grad-allreduce", "kfac-allreduce",
		"kfac-eigendecomp", "kfac-precondition", "compress", "kfac-allgather", "decompress"} {
		if !cats[want] {
			t.Errorf("program missing category %q", want)
		}
	}

	w := des.NewWorld(cluster.Platform1(), 16)
	defer w.Release()
	des.RunOnWorld(w, prog)
	if w.MaxTime() <= 0 || w.Collectives() == 0 {
		t.Fatalf("replay produced no results: time %v, %d collectives", w.MaxTime(), w.Collectives())
	}
}

func TestBuildCommProgramFirstOrderUncompressed(t *testing.T) {
	cfg := CommSimConfig{Model: "ResNet-50", Compressor: "none", Steps: 3}
	prog, info, err := BuildCommProgram(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ratio != 1 {
		t.Fatalf("uncompressed ratio %v, want 1", info.Ratio)
	}
	if info.BlobBytes != 4*info.GradElems {
		t.Fatalf("uncompressed blob %d, want %d", info.BlobBytes, 4*info.GradElems)
	}
	for _, op := range prog {
		if op.Kind == des.KindCompute && (op.Category == "compress" || op.Category == "decompress") && op.Seconds != 0 {
			t.Fatalf("uncompressed program charges %q time %v", op.Category, op.Seconds)
		}
		if op.Category == "grad-allreduce" || op.Category == "kfac-allgather" {
			t.Fatalf("first-order program has K-FAC op %q", op.Category)
		}
	}
}

func TestBuildCommProgramDeterministic(t *testing.T) {
	cfg := CommSimConfig{Model: "BERT-large", Compressor: "compso", Steps: 4, KFAC: true, Seed: 9}
	a, ai, err := BuildCommProgram(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, bi, err := BuildCommProgram(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ai != bi {
		t.Fatalf("calibration differs across builds: %+v vs %+v", ai, bi)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("program differs across builds with identical config")
	}
}

func TestBuildCommProgramElemScale(t *testing.T) {
	base := CommSimConfig{Model: "ResNet-50", Compressor: "compso", Steps: 2, KFAC: true, Seed: 5}
	scaledCfg := base
	scaledCfg.ElemScale = 1.0 / 64
	full, _, err := BuildCommProgram(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := BuildCommProgram(scaledCfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(small) {
		t.Fatalf("scaled program has %d ops, full %d — shapes must match", len(small), len(full))
	}
	for i := range full {
		if full[i].Kind != small[i].Kind || full[i].Category != small[i].Category {
			t.Fatalf("op %d shape differs: %+v vs %+v", i, full[i], small[i])
		}
		if full[i].Kind == des.KindAllReduce && small[i].Elems >= full[i].Elems {
			t.Fatalf("op %d: scaled elems %d not smaller than full %d", i, small[i].Elems, full[i].Elems)
		}
	}
}

// TestBuildCommProgramEngineIdentity replays the lowered K-FAC + COMPSO
// program on both time engines and requires bit-identical per-rank time,
// stats and AlgSeconds, schedule seconds and wire bytes. The golden matrix
// in internal/des holds the engines together on hand-built programs; this
// holds them together on the program BuildCommProgram really emits.
func TestBuildCommProgramEngineIdentity(t *testing.T) {
	cfg := CommSimConfig{Model: "ResNet-50", Compressor: "compso", Steps: 4, KFAC: true, Seed: 17,
		// Reduced payloads: the goroutine engine moves real bytes, and
		// identity only needs both engines replaying the same program.
		ElemScale: 1.0 / 64}
	for _, p := range []int{3, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			prog, _, err := BuildCommProgram(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			platform := cluster.Platform1()
			c := cluster.New(platform, p)
			rec := obs.NewRecorder()
			c.Observe(rec)
			workers := des.RunOnCluster(c, prog)

			w := des.NewWorld(platform, p)
			defer w.Release()
			des.RunOnWorld(w, prog)

			for r := 0; r < p; r++ {
				if got, want := w.TimeOf(r), workers[r].Time(); got != want {
					t.Errorf("rank %d: time %v, goroutine engine %v", r, got, want)
				}
				if got, want := w.StatsOf(r), workers[r].Stats(); !reflect.DeepEqual(got, want) {
					t.Errorf("rank %d: stats %v, goroutine engine %v", r, got, want)
				}
				if got, want := w.AlgSecondsOf(r), workers[r].AlgSeconds(); !reflect.DeepEqual(got, want) {
					t.Errorf("rank %d: AlgSeconds %v, goroutine engine %v", r, got, want)
				}
			}
			meas, pred := w.ScheduleSeconds()
			refMeas, refPred := workers[0].Ledger().ScheduleSeconds()
			if meas != refMeas || pred != refPred {
				t.Errorf("schedule seconds (%v, %v), goroutine engine (%v, %v)", meas, pred, refMeas, refPred)
			}
			if got, want := float64(w.WireBytes()), rec.Counter("wire/total/bytes").Value(); got != want {
				t.Errorf("wire bytes %v, goroutine engine %v", got, want)
			}
		})
	}
}

func TestBuildCommProgramUnknownInputs(t *testing.T) {
	if _, _, err := BuildCommProgram(CommSimConfig{Model: "no-such-model"}, 8); err == nil {
		t.Fatal("unknown model should error")
	}
	if _, _, err := BuildCommProgram(CommSimConfig{Compressor: "no-such-comp"}, 8); err == nil {
		t.Fatal("unknown compressor should error")
	}
}
