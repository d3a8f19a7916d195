package quant

import (
	"math"
	"testing"
	"testing/quick"

	"compso/internal/stats"
	"compso/internal/xrand"
)

func TestQuantizeFixedErrorBound(t *testing.T) {
	rng := xrand.NewSeeded(1)
	src := make([]float32, 5000)
	xrand.Fill(rng, src, 1.0)
	for _, mode := range []Mode{RN, SR, P05} {
		levels, scale := QuantizeFixed(src, 8, mode, rng)
		rec := DequantizeFixed(levels, scale)
		maxErr := 0.0
		for i := range src {
			if e := math.Abs(float64(rec[i] - src[i])); e > maxErr {
				maxErr = e
			}
		}
		// RN error <= scale/2; SR/P05 can be a full bin off.
		bound := scale
		if mode == RN {
			bound = scale/2 + 1e-9
		}
		if maxErr > bound+1e-9 {
			t.Errorf("%v: max error %g > bound %g (scale %g)", mode, maxErr, bound, scale)
		}
	}
}

func TestQuantizeFixedAllZero(t *testing.T) {
	levels, scale := QuantizeFixed(make([]float32, 10), 8, RN, nil)
	if scale != 0 {
		t.Fatalf("scale = %g, want 0", scale)
	}
	for _, l := range levels {
		if l != 0 {
			t.Fatal("nonzero level for zero input")
		}
	}
	rec := DequantizeFixed(levels, scale)
	for _, v := range rec {
		if v != 0 {
			t.Fatal("nonzero reconstruction for zero input")
		}
	}
}

func TestQuantizeFixedBadBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QuantizeFixed(bits=1) did not panic")
		}
	}()
	QuantizeFixed([]float32{1}, 1, RN, nil)
}

func TestQuantizeFixedLevelRange(t *testing.T) {
	rng := xrand.NewSeeded(2)
	src := make([]float32, 1000)
	xrand.Fill(rng, src, 5)
	for _, bits := range []int{2, 4, 8, 16} {
		levels, _ := QuantizeFixed(src, bits, SR, rng)
		maxLevel := int32(1)<<(bits-1) - 1
		for i, l := range levels {
			if l > maxLevel || l < -maxLevel {
				t.Fatalf("bits=%d: level[%d] = %d outside ±%d", bits, i, l, maxLevel)
			}
		}
	}
}

func TestQuantizeEBRespectsErrorBound(t *testing.T) {
	rng := xrand.NewSeeded(3)
	src := make([]float32, 20000)
	xrand.KFACGradient(rng, src, 1.0)
	for _, mode := range []Mode{RN, SR, P05} {
		for _, eb := range []float64{1e-1, 4e-3, 2e-3} {
			codes := QuantizeEB(src, eb, mode, rng)
			rec := DequantizeEB(codes, eb, mode)
			for i := range src {
				if e := math.Abs(float64(rec[i] - src[i])); e > eb+1e-7 {
					t.Fatalf("%v eb=%g: error %g at %d exceeds bound", mode, eb, e, i)
				}
			}
		}
	}
}

func TestQuantizeEBZeroEBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QuantizeEB(eb=0) did not panic")
		}
	}()
	QuantizeEB([]float32{1}, 0, RN, nil)
}

func TestSRIsUnbiased(t *testing.T) {
	// SR's defining property: E[quantized] = value. Quantize the same value
	// many times and check the mean.
	rng := xrand.NewSeeded(4)
	const v = 0.3337
	const eb = 1e-2
	src := make([]float32, 100000)
	for i := range src {
		src[i] = v
	}
	codes := QuantizeEB(src, eb, SR, rng)
	rec := DequantizeEB(codes, eb, SR)
	var sum float64
	for _, r := range rec {
		sum += float64(r)
	}
	mean := sum / float64(len(rec))
	if math.Abs(mean-v) > eb/50 {
		t.Fatalf("SR mean = %g, want ~%g", mean, v)
	}
}

func TestRNIsBiasedOnFixedValue(t *testing.T) {
	// RN always rounds the same direction for a fixed value — deterministic.
	rng := xrand.NewSeeded(5)
	src := []float32{0.333, 0.333}
	a := QuantizeEB(src, 1e-2, RN, rng)
	b := QuantizeEB(src, 1e-2, RN, rng)
	if a[0] != b[0] || a[0] != a[1] {
		t.Fatal("RN was not deterministic")
	}
}

func TestErrorDistributionShapes(t *testing.T) {
	// The paper's §4.2 finding, as a test: SR error is triangular, RN and
	// P0.5 errors are uniform.
	rng := xrand.NewSeeded(6)
	src := make([]float32, 200000)
	xrand.FillUniform(rng, src, -1, 1)
	const eb = 4e-3
	tri := map[Mode]float64{}
	for _, mode := range []Mode{RN, SR, P05} {
		codes := QuantizeEB(src, eb, mode, rng)
		rec := DequantizeEB(codes, eb, mode)
		h := stats.NewHistogram(-eb, eb, 21)
		for i := range src {
			h.Add(float64(rec[i]) - float64(src[i]))
		}
		tri[mode] = h.Triangularity()
	}
	if tri[SR] <= tri[RN] || tri[SR] <= tri[P05] {
		t.Fatalf("SR triangularity %g should exceed RN %g and P05 %g", tri[SR], tri[RN], tri[P05])
	}
	if tri[SR] < 0.75 {
		t.Fatalf("SR triangularity = %g, want >= 0.75", tri[SR])
	}
}

func TestZigZag(t *testing.T) {
	cases := map[int32]uint32{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, 1 << 30: 1 << 31}
	for v, want := range cases {
		if got := ZigZag(v); got != want {
			t.Fatalf("ZigZag(%d) = %d, want %d", v, got, want)
		}
		if back := UnZigZag(want); back != v {
			t.Fatalf("UnZigZag(%d) = %d, want %d", want, back, v)
		}
	}
}

func TestZigZagRoundTripProperty(t *testing.T) {
	f := func(v int32) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackCodes(t *testing.T) {
	codes := []int32{0, 1, -1, 50, -63, 63, 0, 0}
	packed := PackCodes(codes)
	got, err := UnpackCodes(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(codes) {
		t.Fatalf("len = %d, want %d", len(got), len(codes))
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("code %d = %d, want %d", i, got[i], codes[i])
		}
	}
}

func TestPackCodesUsesMinimalWidth(t *testing.T) {
	// Max zig-zag value of 63 (-32..31) needs 7 bits exactly — the §4.3
	// example of beating QSGD's fixed 8 bits by ~14%.
	codes := make([]int32, 1000)
	for i := range codes {
		codes[i] = int32(i%64) - 32
	}
	packed := PackCodes(codes)
	// ~1000*7/8 = 875 bytes plus a small header.
	if len(packed) > 890 {
		t.Fatalf("packed %d codes into %d bytes, want ~880", len(codes), len(packed))
	}
}

func TestPackCodesEmptyAndZero(t *testing.T) {
	for _, codes := range [][]int32{{}, {0, 0, 0}} {
		got, err := UnpackCodes(PackCodes(codes))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(codes) {
			t.Fatalf("len = %d, want %d", len(got), len(codes))
		}
		for i := range codes {
			if got[i] != 0 {
				t.Fatal("nonzero code after round trip")
			}
		}
	}
}

func TestUnpackCodesCorrupt(t *testing.T) {
	packed := PackCodes([]int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if _, err := UnpackCodes(packed[:len(packed)-2]); err == nil {
		t.Fatal("truncated pack accepted")
	}
	if _, err := UnpackCodes(nil); err == nil {
		t.Fatal("empty pack accepted")
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(raw []int32) bool {
		got, err := UnpackCodes(PackCodes(raw))
		if err != nil || len(got) != len(raw) {
			return false
		}
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if RN.String() != "RN" || SR.String() != "SR" || P05.String() != "P0.5" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestPlaneSplitJoinRoundTrip(t *testing.T) {
	codes := []int32{0, 1, -1, 127, -128, 255, -256, 70000, -70000}
	planes := PlaneSplit(codes)
	if len(planes) != 3 { // zig-zag of ±70000 needs 18 bits → 3 planes
		t.Fatalf("planes = %d, want 3", len(planes))
	}
	back, err := PlaneJoin(planes, len(codes))
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if back[i] != codes[i] {
			t.Fatalf("code %d = %d, want %d", i, back[i], codes[i])
		}
	}
}

func TestPlaneSplitAllZero(t *testing.T) {
	planes := PlaneSplit([]int32{0, 0, 0})
	if len(planes) != 0 {
		t.Fatalf("all-zero input produced %d planes", len(planes))
	}
	back, err := PlaneJoin(planes, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range back {
		if c != 0 {
			t.Fatal("nonzero code from zero planes")
		}
	}
}

func TestPlaneJoinValidation(t *testing.T) {
	if _, err := PlaneJoin([][]byte{{1, 2}}, 3); err == nil {
		t.Fatal("wrong plane length accepted")
	}
	if _, err := PlaneJoin(make([][]byte, 5), 0); err == nil {
		t.Fatal("5 planes accepted")
	}
}

func TestPlaneSplitJoinProperty(t *testing.T) {
	f := func(raw []int32) bool {
		planes := PlaneSplit(raw)
		back, err := PlaneJoin(planes, len(raw))
		if err != nil {
			return false
		}
		for i := range raw {
			if back[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaneZeroHighBytesCompressWell(t *testing.T) {
	// The design rationale: small codes leave the high planes all-zero.
	codes := make([]int32, 1000)
	for i := range codes {
		codes[i] = int32(i%300) - 150
	}
	planes := PlaneSplit(codes)
	if len(planes) != 2 {
		t.Fatalf("planes = %d", len(planes))
	}
	nonzero := 0
	for _, b := range planes[1] {
		if b != 0 {
			nonzero++
		}
	}
	if nonzero > len(planes[1])/2 {
		t.Fatalf("high plane has %d/%d nonzero bytes", nonzero, len(planes[1]))
	}
}

func TestRoundModePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mode did not panic")
		}
	}()
	QuantizeEB([]float32{1}, 1e-2, Mode(99), nil)
}

func TestModeStringUnknown(t *testing.T) {
	if got := Mode(42).String(); got != "Mode(42)" {
		t.Fatalf("Mode(42).String() = %q", got)
	}
}

func TestP05OnExactIntegerLevels(t *testing.T) {
	// Values exactly on a level must never move under P0.5.
	rng := xrand.NewSeeded(50)
	const eb = 0.015625 // 2^-6: exact in binary, so multiples are exact too
	src := []float32{0, eb, -3 * eb}
	codes := QuantizeEB(src, eb, P05, rng)
	rec := DequantizeEB(codes, eb, P05)
	for i := range src {
		if math.Abs(float64(rec[i]-src[i])) > 1e-9 {
			t.Fatalf("exact level moved: %g -> %g", src[i], rec[i])
		}
	}
}
