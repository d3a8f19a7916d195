package compso_test

import (
	"bytes"
	"errors"
	"testing"

	"compso"
	"compso/internal/compress"
)

func apiGrad(n int) []float32 {
	g := make([]float32, n)
	rng := compso.NewRand(77)
	for i := range g {
		g[i] = float32(rng.NormFloat64() * 0.01)
	}
	return g
}

// TestNewCompressorForBitIdentity: the public registry entry point must
// match direct construction with the internal constructors, family by
// family.
func TestNewCompressorForBitIdentity(t *testing.T) {
	src := apiGrad(900)
	cases := []struct {
		name   string
		family string
		opts   []compso.Option
		direct func() compso.Compressor
		rounds int
	}{
		{"compso", "compso", []compso.Option{compso.WithSeed(9)},
			func() compso.Compressor { return compress.NewCOMPSO(9) }, 3},
		{"qsgd", "qsgd", []compso.Option{compso.WithSeed(9), compso.WithBits(8)},
			func() compso.Compressor { return compress.NewQSGD(8, 9) }, 3},
		{"sz", "sz", []compso.Option{compso.WithRelErrorBound(4e-3)},
			func() compso.Compressor { return compress.NewSZ(4e-3) }, 1},
		{"cocktail", "cocktail", []compso.Option{compso.WithSeed(9), compso.WithKeepFraction(0.2), compso.WithBits(8)},
			func() compso.Compressor { return compress.NewCocktailSGD(0.2, 8, 9) }, 3},
		{"powersgd", "powersgd", []compso.Option{compso.WithSeed(9), compso.WithRank(4)},
			func() compso.Compressor { return compress.NewPowerSGD(4, 9) }, 3},
	}
	for _, tc := range cases {
		reg, err := compso.NewCompressorFor(tc.family, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		direct := tc.direct()
		for r := 0; r < tc.rounds; r++ {
			rb, err1 := reg.Compress(src)
			db, err2 := direct.Compress(src)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s round %d: %v %v", tc.name, r, err1, err2)
			}
			if !bytes.Equal(rb, db) {
				t.Fatalf("%s round %d: registry blob differs from direct construction", tc.name, r)
			}
		}
	}
}

// TestNewCompressorForErrorFeedback: WithErrorFeedback composes on any
// family and matches a hand wrap.
func TestNewCompressorForErrorFeedback(t *testing.T) {
	src := apiGrad(600)
	reg, err := compso.NewCompressorFor("powersgd",
		compso.WithSeed(3), compso.WithRank(2), compso.WithErrorFeedback())
	if err != nil {
		t.Fatal(err)
	}
	ef, ok := reg.(*compso.ErrorFeedback)
	if !ok {
		t.Fatalf("WithErrorFeedback built %T", reg)
	}
	want := compso.NewErrorFeedback(compso.NewPowerSGD(2, 3))
	for r := 0; r < 3; r++ {
		rb, err1 := ef.Compress(src)
		wb, err2 := want.Compress(src)
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: %v %v", r, err1, err2)
		}
		if !bytes.Equal(rb, wb) {
			t.Fatalf("round %d: EF blobs differ", r)
		}
	}
	if ef.ResidualNorm() <= 0 {
		t.Fatal("no residual in flight after lossy rounds")
	}
}

// TestNewCompressorForValidation: family resolution and option conflicts
// fail with the sentinel, not panics.
func TestNewCompressorForValidation(t *testing.T) {
	if _, err := compso.NewCompressorFor("zfp"); !errors.Is(err, compso.ErrUnknownFamily) {
		t.Fatalf("unknown family: %v", err)
	}
	// Conflicting explicit family argument vs WithFamily option.
	if _, err := compso.NewCompressorFor("qsgd", compso.WithFamily("sz")); err == nil {
		t.Fatal("conflicting families accepted")
	}
	// Empty family falls back to WithFamily, then to compso.
	c, err := compso.NewCompressorFor("", compso.WithFamily("powersgd"), compso.WithRank(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*compso.PowerSGD); !ok {
		t.Fatalf("WithFamily fallback built %T", c)
	}
	d, err := compso.NewCompressorFor("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*compso.COMPSO); !ok {
		t.Fatalf("default family built %T", d)
	}
	if _, err := compso.NewCompressorFor("qsgd", compso.WithBits(40)); err == nil {
		t.Fatal("qsgd bits 40 accepted")
	}
}

// TestFamiliesAndStateful: discovery and the Stateful contract through
// the facade.
func TestFamiliesAndStateful(t *testing.T) {
	fams := compso.Families()
	if len(fams) != 5 || fams[len(fams)-1] != "powersgd" {
		t.Fatalf("Families() = %v", fams)
	}
	c, err := compso.NewCompressorFor("powersgd", compso.WithRank(2), compso.WithErrorFeedback())
	if err != nil {
		t.Fatal(err)
	}
	st, ok := c.(compso.Stateful)
	if !ok {
		t.Fatalf("%T is not Stateful", c)
	}
	if _, err := c.Compress(apiGrad(128)); err != nil {
		t.Fatal(err)
	}
	st.Reset()
	if _, err := c.Compress(apiGrad(64)); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

// TestPlanFamiliesFacade: the per-layer planner is reachable through the
// facade types.
func TestPlanFamiliesFacade(t *testing.T) {
	prof, err := compso.ModelByName("BERT-large")
	if err != nil {
		t.Fatal(err)
	}
	plan := compso.PlanFamilies(prof, 4, 0)
	if plan.LowRankLayers() == 0 {
		t.Fatal("no low-rank layers planned for BERT-large")
	}
}
