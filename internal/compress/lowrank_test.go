package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"compso/internal/xrand"
)

// lowRankInput builds a gradient that is exactly rank r under the given
// 2D view, so a rank-k >= r compressor can reconstruct it to float32
// precision.
func lowRankInput(rows, cols, r int, seed int64) []float32 {
	rng := xrand.NewSeeded(seed)
	u := make([]float64, rows*r)
	v := make([]float64, cols*r)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	out := make([]float32, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var s float64
			for t := 0; t < r; t++ {
				s += u[i*r+t] * v[j*r+t]
			}
			out[i*cols+j] = float32(s)
		}
	}
	return out
}

func relErr(want, got []float32) float64 {
	var num, den float64
	for i := range want {
		d := float64(want[i]) - float64(got[i])
		num += d * d
		den += float64(want[i]) * float64(want[i])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestPowerSGDExactOnLowRank: a gradient that is genuinely rank-2 under
// the pinned view must round-trip through a rank-4 compressor almost
// exactly — one power-iteration step captures the full subspace.
func TestPowerSGDExactOnLowRank(t *testing.T) {
	src := lowRankInput(40, 25, 2, 5)
	pc := NewPowerSGD(4, 9)
	pc.Rows, pc.Cols = 40, 25
	blob, err := pc.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pc.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(src, out); e > 1e-5 {
		t.Fatalf("rank-2 input through rank-4 compressor: relative error %g", e)
	}
}

// TestPowerSGDWarmStartSharpens: on a slowly rotating dominant subspace,
// the warm-started query must approximate later gradients better than a
// cold query re-initialized each step.
func TestPowerSGDWarmStartSharpens(t *testing.T) {
	const rows, cols = 32, 32
	warm := NewPowerSGD(2, 3)
	warm.Rows, warm.Cols = rows, cols
	cold := NewPowerSGD(2, 3)
	cold.Rows, cold.Cols = rows, cols
	cold.WarmStart = false

	var warmErr, coldErr float64
	base := lowRankInput(rows, cols, 2, 8)
	noise := kfacData(rows*cols, 77)
	src := make([]float32, rows*cols)
	for step := 0; step < 8; step++ {
		for i := range src {
			src[i] = base[i] + 0.05*noise[(i+step)%len(noise)]
		}
		for _, pc := range []*PowerSGD{warm, cold} {
			blob, err := pc.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			out, err := pc.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			if pc == warm {
				warmErr = relErr(src, out)
			} else {
				coldErr = relErr(src, out)
			}
		}
	}
	if warmErr > coldErr+1e-9 {
		t.Fatalf("warm-started error %g worse than cold %g", warmErr, coldErr)
	}
}

// TestPowerSGDGoldenBlobs locks the blob encoding bit-for-bit across
// seeds: the format, the deterministic query init and the float64
// Gram-Schmidt must not drift silently.
func TestPowerSGDGoldenBlobs(t *testing.T) {
	golden := map[int64][2]string{
		3:  {"8f0be982c2d222f19dc4b3d4d181b77d0075dabc74c46a1812ad8fff3733a1ff", "971d0bdc7d35106294c5a6def5874fcb532d76c30f9daf9606f6bf4f206b3a01"},
		11: {"439ab31dff9b2157945bfdfadeedf113428ed3c16ebf5627e60fa7c882f51f50", "48c0d385496c55662a681110b5cabe4960deea8b31f6a285127af9b2c0c0aa37"},
	}
	src := kfacData(1000, 13)
	for seed, want := range golden {
		pc := NewPowerSGD(4, seed)
		for step := 0; step < 2; step++ {
			blob, err := pc.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != want[step] {
				t.Fatalf("seed %d step %d: blob sha256 %s, want %s", seed, step, got, want[step])
			}
		}
	}
}

// ringWorld simulates world instances of the alternating-factor ring
// exchange for steps steps and returns each rank's final restored
// gradient plus the true mean gradient.
func ringWorld(t *testing.T, world, n, steps int) (restored [][]float32, mean []float32) {
	t.Helper()
	workers := make([]*PowerSGD, world)
	for r := range workers {
		workers[r] = NewPowerSGD(4, 99) // shared seed: the ring invariant
	}
	grads := make([][]float32, world)
	for r := range grads {
		grads[r] = kfacData(n, int64(1000+r))
	}
	mean = make([]float32, n)
	for i := 0; i < n; i++ {
		var s float64
		for r := range grads {
			s += float64(grads[r][i])
		}
		mean[i] = float32(s / float64(world))
	}
	restored = make([][]float32, world)
	for step := 0; step < steps; step++ {
		var sum []float64
		for r, w := range workers {
			f, err := w.ReduceFactor(grads[r])
			if err != nil {
				t.Fatalf("world %d rank %d step %d: %v", world, r, step, err)
			}
			if sum == nil {
				sum = make([]float64, len(f))
			} else if len(f) != len(sum) {
				t.Fatalf("world %d rank %d step %d: factor length %d, others %d", world, r, step, len(f), len(sum))
			}
			for i, v := range f {
				sum[i] += v
			}
		}
		for r, w := range workers {
			out, err := w.InstallReduced(sum, world)
			if err != nil {
				t.Fatalf("world %d rank %d step %d: %v", world, r, step, err)
			}
			restored[r] = out
		}
	}
	return restored, mean
}

// TestPowerSGDRingAgreement: for power-of-two and non-power-of-two world
// sizes, every rank's InstallReduced output must be bit-identical every
// step (the SPMD shared-factor invariant), and the reconstruction must
// track the mean gradient.
func TestPowerSGDRingAgreement(t *testing.T) {
	for _, world := range []int{2, 3, 4, 5} {
		restored, mean := ringWorld(t, world, 900, 6)
		for r := 1; r < world; r++ {
			for i := range restored[0] {
				if restored[r][i] != restored[0][i] {
					t.Fatalf("world %d: rank %d value %d = %g, rank 0 = %g — factor state diverged",
						world, r, i, restored[r][i], restored[0][i])
				}
			}
		}
		// Rank-4 on a 30x30 view of rough noise won't be tight, but the
		// reconstruction must correlate with the mean gradient.
		var dot, nm, nr float64
		for i := range mean {
			dot += float64(mean[i]) * float64(restored[0][i])
			nm += float64(mean[i]) * float64(mean[i])
			nr += float64(restored[0][i]) * float64(restored[0][i])
		}
		if nm == 0 || nr == 0 || dot/math.Sqrt(nm*nr) < 0.1 {
			t.Fatalf("world %d: reconstruction uncorrelated with mean gradient (cos=%g)",
				world, dot/math.Sqrt(nm*nr))
		}
	}
}

// TestPowerSGDLengthMismatch: the stream length pins on first use in both
// modes; a later change must surface ErrLengthMismatch.
func TestPowerSGDLengthMismatch(t *testing.T) {
	pc := NewPowerSGD(4, 1)
	if _, err := pc.Compress(kfacData(100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Compress(kfacData(50, 1)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("blob mode after length change: %v, want ErrLengthMismatch", err)
	}
	rc := NewPowerSGD(4, 1)
	if _, err := rc.ReduceFactor(kfacData(100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.ReduceFactor(kfacData(99, 1)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("ring mode after length change: %v, want ErrLengthMismatch", err)
	}
	// A pinned 2D view too small for the input fails without pinning.
	small := NewPowerSGD(2, 1)
	small.Rows, small.Cols = 4, 4
	if _, err := small.Compress(kfacData(100, 1)); err == nil {
		t.Fatal("16-slot view accepted 100 values")
	}
}

// TestPowerSGDDecompressCorrupt: hostile blobs must error, never panic
// or over-allocate.
func TestPowerSGDDecompressCorrupt(t *testing.T) {
	pc := NewPowerSGD(4, 2)
	valid, err := pc.Compress(kfacData(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"magic only":     {magicLowRank},
		"truncated dims": valid[:4],
		"truncated body": valid[:len(valid)-3],
		"trailing":       append(append([]byte(nil), valid...), 1, 2),
	}
	// k > rows: n=4, rows=1, cols=4, k=3.
	bad := []byte{magicLowRank, 4, 1, 4, 3}
	cases["rank over rows"] = bad
	// rows*cols < n.
	cases["undersized shape"] = []byte{magicLowRank, 100, 3, 3, 1}
	for name, blob := range cases {
		if _, err := (&PowerSGD{}).Decompress(blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	if out, err := (&PowerSGD{}).Decompress(valid); err != nil || len(out) != 300 {
		t.Fatalf("zero-value decode of a valid blob: %d values, %v", len(out), err)
	}
}

// TestPowerSGDStateful: State is a deep snapshot and Reset starts a new
// stream accepting a different length.
func TestPowerSGDStateful(t *testing.T) {
	pc := NewPowerSGD(4, 3)
	if _, err := pc.Compress(kfacData(200, 3)); err != nil {
		t.Fatal(err)
	}
	st := pc.State().(PowerSGDState)
	if st.Step != 1 || st.N != 200 || st.Q == nil {
		t.Fatalf("state after one step: %+v", st)
	}
	st.Q[0] = 1e9 // mutating the snapshot must not touch the live factor
	st2 := pc.State().(PowerSGDState)
	if st2.Q[0] == 1e9 {
		t.Fatal("State returned a shared slice")
	}
	pc.Reset()
	if _, err := pc.Compress(kfacData(64, 3)); err != nil {
		t.Fatalf("compress after Reset: %v", err)
	}
}

// TestPowerSGDEmptyStream: zero-length streams are valid in both modes.
func TestPowerSGDEmptyStream(t *testing.T) {
	pc := NewPowerSGD(4, 4)
	blob, err := pc.Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&PowerSGD{}).Decompress(blob)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty roundtrip: %d values, %v", len(out), err)
	}
	// The empty stream is pinned too.
	if _, err := pc.Compress(kfacData(8, 4)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length change after empty pin: %v, want ErrLengthMismatch", err)
	}
	rc := NewPowerSGD(4, 4)
	f, err := rc.ReduceFactor(nil)
	if err != nil || len(f) != 0 {
		t.Fatalf("empty ReduceFactor: %v", err)
	}
	got, err := rc.InstallReduced(nil, 3)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty InstallReduced: %v", err)
	}
}

// TestPowerSGDFactorLen: the probe reports ring volumes without touching
// live state.
func TestPowerSGDFactorLen(t *testing.T) {
	pc := NewPowerSGD(4, 5)
	pc.Rows, pc.Cols = 100, 60
	even, odd, err := pc.FactorLen(6000)
	if err != nil {
		t.Fatal(err)
	}
	if even != 400 || odd != 240 {
		t.Fatalf("factor lengths %d/%d, want 400/240", even, odd)
	}
	if pc.n != 0 || pc.step != 0 {
		t.Fatal("FactorLen mutated live state")
	}
	if _, _, err := pc.FactorLen(6001); err == nil {
		t.Fatal("FactorLen accepted an input larger than the pinned view")
	}
}

// TestDecodeDispatch: the magic-byte dispatcher must route every
// family's blob to the right decoder and reject unknown magics.
func TestDecodeDispatch(t *testing.T) {
	src := kfacData(500, 6)
	comps := []Compressor{
		NewCOMPSO(6),
		NewQSGD(8, 6),
		NewSZ(1e-3),
		NewCocktailSGD(0.04, 8, 6),
		NewPowerSGD(4, 6),
	}
	for _, c := range comps {
		blob, err := c.Compress(src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		want, err := c.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.Name(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: Decode %d values, want %d", c.Name(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: Decode value %d differs", c.Name(), i)
			}
		}
	}
	if _, err := Decode([]byte{0xEE, 1, 2, 3}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown magic: %v, want ErrCorrupt", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty blob: %v, want ErrCorrupt", err)
	}
}

// The scalar loops PowerSGD's three products ran on before they moved to
// tensor's kernels, verbatim: the oracle the kernels are held to bit for
// bit.

// mulMQ computes dst = M·Q (rows×k), where M is the zero-padded rows×cols
// view of src[:n] and Q is cols×k.
func mulMQ(src []float32, n, rows, cols, k int, q, dst []float64) {
	clear(dst)
	for r := 0; r < rows; r++ {
		base := r * cols
		cend := cols
		if base+cend > n {
			cend = n - base
		}
		if cend <= 0 {
			break
		}
		prow := dst[r*k : r*k+k]
		for c := 0; c < cend; c++ {
			v := float64(src[base+c])
			if v == 0 {
				continue
			}
			qrow := q[c*k : c*k+k]
			for j := range prow {
				prow[j] += float64(v * qrow[j])
			}
		}
	}
}

// mulMTP computes dst = Mᵀ·P (cols×k) for the same padded view.
func mulMTP(src []float32, n, rows, cols, k int, p, dst []float64) {
	clear(dst)
	for r := 0; r < rows; r++ {
		base := r * cols
		cend := cols
		if base+cend > n {
			cend = n - base
		}
		if cend <= 0 {
			break
		}
		prow := p[r*k : r*k+k]
		for c := 0; c < cend; c++ {
			v := float64(src[base+c])
			if v == 0 {
				continue
			}
			qrow := dst[c*k : c*k+k]
			for j := range qrow {
				qrow[j] += float64(v * prow[j])
			}
		}
	}
}

// lowRankReconstruct writes flatten(P·Qᵀ)[:n] into out.
func lowRankReconstruct(pm, qm []float64, n, cols, k int, out []float32) {
	idx := 0
	for r := 0; idx < n; r++ {
		prow := pm[r*k : r*k+k]
		cend := cols
		if n-idx < cend {
			cend = n - idx
		}
		for c := 0; c < cend; c++ {
			qrow := qm[c*k : c*k+k]
			var s float64
			for j := range prow {
				s += float64(prow[j] * qrow[j])
			}
			out[idx] = float32(s)
			idx++
		}
	}
}

// productShapes are the views the products are held to the loops on:
// near-square with a padded tail, pinned views whose last row is partial
// or whose last rows are all padding, rows past a gather block of 64 terms
// and a view taller than TMatMul's 128-row panel.
var productShapes = []struct{ rows, cols, n int }{
	{0, 0, 97},
	{7, 13, 85},
	{8, 5, 31},
	{4, 300, 1200},
	{130, 3, 388},
	{1, 9, 9},
}

// productInput draws n gradient values with every case the products treat
// apart: ±0 entries, an all-zero row of the cols-wide view (its second)
// and, when special is set, NaN and ±Inf.
func productInput(n, cols int, special bool, seed int64) []float32 {
	rng := xrand.NewSeeded(seed)
	src := make([]float32, n)
	for i := range src {
		switch rng.IntN(12) {
		case 0:
			src[i] = 0
		case 1:
			src[i] = float32(math.Copysign(0, -1))
		default:
			src[i] = float32(rng.NormFloat64())
		}
	}
	for c := cols; c < min(2*cols, n); c++ {
		src[c] = float32(math.Copysign(0, float64(c%2)-0.5))
	}
	if special {
		src[rng.IntN(n)] = float32(math.NaN())
		src[rng.IntN(n)] = float32(math.Inf(1))
		src[rng.IntN(n)] = float32(math.Inf(-1))
	}
	return src
}

// firstBitDiff returns the first index at which got and want differ in
// their bits, or -1. A NaN matches any NaN: when two NaNs meet in an add,
// x86 keeps the payload of the operand the compiler or the kernel put
// first, which IEEE 754 leaves open, so a NaN's payload is not part of
// the products' contract.
func firstBitDiff[T float32 | float64](got, want []T) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// Ring mode on tensor's kernels gives the loops' bits: every rank's factor
// (M·Q on even steps, Mᵀ·P on odd ones) and every restored gradient, over
// two rounds of both phases on two ranks, at ranks 1–4 on every view, with
// NaN and ±Inf among the inputs or not. The factor is the compressor's own
// storage, the same from step to step once it has grown.
func TestPowerSGDRingProductsMatchLoops(t *testing.T) {
	for _, sh := range productShapes {
		for rank := 1; rank <= 4; rank++ {
			for _, special := range []bool{false, true} {
				ranks := []*PowerSGD{NewPowerSGD(rank, 5), NewPowerSGD(rank, 5)}
				grads := make([][]float32, len(ranks))
				for r, pc := range ranks {
					pc.Rows, pc.Cols = sh.rows, sh.cols
					grads[r] = productInput(sh.n, max(sh.cols, 10), special, int64(10*rank+r))
				}
				name := fmt.Sprintf("%dx%d n=%d rank=%d special=%v", sh.rows, sh.cols, sh.n, rank, special)
				var first []float64
				for step := range 4 {
					var sum []float64
					for r, pc := range ranks {
						f, err := pc.ReduceFactor(grads[r])
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						n, rows, cols, k := pc.n, pc.rows, pc.cols, pc.k
						var want []float64
						if pc.phase == 0 {
							want = make([]float64, rows*k)
							mulMQ(grads[r], n, rows, cols, k, pc.q, want)
						} else {
							want = make([]float64, cols*k)
							mulMTP(grads[r], n, rows, cols, k, pc.p, want)
						}
						if i := firstBitDiff(f, want); i >= 0 {
							t.Fatalf("%s: step %d rank %d factor[%d] = %v (%#x), loops %v (%#x)", name, step, r, i, f[i], math.Float64bits(f[i]), want[i], math.Float64bits(want[i]))
						}
						// Grown to both phases' length by step 1, the buffer
						// stays put from then on.
						if r == 0 && step == 1 {
							first = f
						} else if r == 0 && step > 1 && &f[0] != &first[0] {
							t.Fatalf("%s: ReduceFactor left its own storage", name)
						}
						if sum == nil {
							sum = make([]float64, len(f))
						}
						for i, v := range f {
							sum[i] += v
						}
					}
					for r, pc := range ranks {
						phase := pc.phase
						got, err := pc.InstallReduced(sum, len(ranks))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						avg := make([]float64, len(sum))
						for i, v := range sum {
							avg[i] = v * (1 / float64(len(ranks)))
						}
						want := make([]float32, pc.n)
						if phase == 0 {
							lowRankReconstruct(avg, pc.q, pc.n, pc.cols, pc.k, want)
						} else {
							lowRankReconstruct(pc.p, avg, pc.n, pc.cols, pc.k, want)
						}
						if i := firstBitDiff(got, want); i >= 0 {
							t.Fatalf("%s: step %d rank %d restored[%d] = %v, loops %v", name, step, r, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// Blob mode on tensor's kernels gives the loops' bits: Compress's factors
// over warm-started steps, and Decompress on factors holding ±0, NaN and
// ±Inf, at ranks 1–4 on every view.
func TestPowerSGDBlobProductsMatchLoops(t *testing.T) {
	for _, sh := range productShapes {
		for rank := 1; rank <= 4; rank++ {
			name := fmt.Sprintf("%dx%d n=%d rank=%d", sh.rows, sh.cols, sh.n, rank)
			pc := NewPowerSGD(rank, 6)
			pc.Rows, pc.Cols = sh.rows, sh.cols
			src := productInput(sh.n, max(sh.cols, 10), false, int64(rank))
			for step := range 3 {
				q := pc.q
				if q == nil {
					if err := pc.ensureShape(len(src)); err != nil {
						t.Fatal(err)
					}
					q = pc.initQuery()
				}
				n, rows, cols, k := pc.n, pc.rows, pc.cols, pc.k
				p := make([]float64, rows*k)
				mulMQ(src, n, rows, cols, k, q, p)
				orthonormalize(p, rows, k)
				qn := make([]float64, cols*k)
				mulMTP(src, n, rows, cols, k, p, qn)
				want := putHeader(nil, magicLowRank, n)
				for _, d := range []int{rows, cols, k} {
					want = binary.AppendUvarint(want, uint64(d))
				}
				want = appendF32Factors(appendF32Factors(want, p), qn)
				blob, err := pc.Compress(src)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(blob, want) {
					t.Fatalf("%s: step %d blob differs from the loops'", name, step)
				}
			}

			// Factors with every special value, as a blob carries them.
			rows, cols, k := pc.rows, pc.cols, pc.k
			pf := productInput(rows*k, k, true, int64(100+rank))
			qf := productInput(cols*k, k, true, int64(200+rank))
			blob := putHeader(nil, magicLowRank, sh.n)
			for _, d := range []int{rows, cols, k} {
				blob = binary.AppendUvarint(blob, uint64(d))
			}
			p64, q64 := make([]float64, len(pf)), make([]float64, len(qf))
			for i, v := range pf {
				p64[i] = float64(v)
			}
			for i, v := range qf {
				q64[i] = float64(v)
			}
			blob = appendF32Factors(appendF32Factors(blob, p64), q64)
			got, err := (&PowerSGD{}).Decompress(blob)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := make([]float32, sh.n)
			lowRankReconstruct(p64, q64, sh.n, cols, k, want)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%s: decoded[%d] = %v, loops %v", name, i, got[i], want[i])
			}
		}
	}
}

// loopRing is the ring step as it ran on the scalar loops: ReduceFactor,
// then InstallReduced of that factor alone (a world of one), every buffer
// held across steps. It is BenchmarkPowerSGDRing's baseline.
type loopRing struct {
	n, rows, cols, k int
	p, q, f          []float64
	out              []float32
	phase            int
}

func newLoopRing(n, rank int, seed int64) *loopRing {
	pc := NewPowerSGD(rank, seed)
	if err := pc.ensureShape(n); err != nil {
		panic(err)
	}
	rows, cols, k := pc.rows, pc.cols, pc.k
	return &loopRing{
		n: n, rows: rows, cols: cols, k: k,
		p: make([]float64, rows*k), q: pc.initQuery(), f: make([]float64, max(rows, cols)*k),
		out: make([]float32, n),
	}
}

func (l *loopRing) step(src []float32) {
	if l.phase == 0 {
		f := l.f[:l.rows*l.k]
		mulMQ(src, l.n, l.rows, l.cols, l.k, l.q, f)
		copy(l.p, f)
		lowRankReconstruct(l.p, l.q, l.n, l.cols, l.k, l.out)
		orthonormalize(l.p, l.rows, l.k)
	} else {
		f := l.f[:l.cols*l.k]
		mulMTP(src, l.n, l.rows, l.cols, l.k, l.p, f)
		copy(l.q, f)
		lowRankReconstruct(l.p, l.q, l.n, l.cols, l.k, l.out)
		orthonormalize(l.q, l.cols, l.k)
	}
	l.phase ^= 1
}

// BenchmarkPowerSGDRing times both phases of the ring step (an op is a P
// step and a Q step, each ReduceFactor then InstallReduced) at rank 4 on
// 10 078 values, a 101×100 view: on tensor's kernels, and on the scalar
// loops they replaced. After its warm-up the kernels' step allocates
// nothing.
func BenchmarkPowerSGDRing(b *testing.B) {
	const n, rank = 10078, 4
	src := kfacData(n, 1)
	b.Run("kernels", func(b *testing.B) {
		pc := NewPowerSGD(rank, 1)
		step := func() {
			f, err := pc.ReduceFactor(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pc.InstallReduced(f, 1); err != nil {
				b.Fatal(err)
			}
		}
		step()
		step()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			step()
			step()
		}
	})
	b.Run("loops", func(b *testing.B) {
		l := newLoopRing(n, rank, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			l.step(src)
			l.step(src)
		}
	})
}
