package train

import (
	"reflect"
	"strings"
	"testing"

	"compso/internal/cluster"
	"compso/internal/des"
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

func TestBuildCommProgramUnknownInputs(t *testing.T) {
	if _, _, err := BuildCommProgram(CommSimConfig{Model: "no-such-model"}, 8); err == nil {
		t.Fatal("unknown model should error")
	}
	if _, _, err := BuildCommProgram(CommSimConfig{Compressor: "no-such-comp"}, 8); err == nil {
		t.Fatal("unknown compressor should error")
	}
}

// TestBuildCommProgramRejectsRingFamily: a first-order powersgd run trains
// on the ring all-reduce, which the lowering does not cover, so the builder
// names the family instead of emitting a blob all-gather the live loop
// never runs.
func TestBuildCommProgramRejectsRingFamily(t *testing.T) {
	for _, name := range []string{"powersgd", "PowerSGD"} {
		_, _, err := BuildCommProgram(CommSimConfig{Compressor: name, Steps: 1}, 4)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("first-order %s: err = %v, want one naming the family", name, err)
		}
	}
}
