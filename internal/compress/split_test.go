package compress

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"compso/internal/pool"
	"compso/internal/quant"
	"compso/internal/xrand"
)

// splitSizes straddle the cutoff: one part below 2·splitMin (2^16+77
// among them), two from it, and three and four parts at GOMAXPROCS 3
// and 4, with a ragged last word.
var splitSizes = []int{1<<16 + 77, 2*splitMin - 1, 2 * splitMin, 3*splitMin + 77, 4*splitMin + 13}

// atProcs runs f with GOMAXPROCS set to procs.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// splitCall is what one Compress + Decompress round trip leaves behind.
type splitCall struct {
	blob      []byte
	compErr   error
	kept      int
	state     []byte // the PCG after Compress
	out       []float32
	decompErr error
}

func roundTrip(c *COMPSO, src []float32) splitCall {
	var r splitCall
	r.blob, r.compErr = c.Compress(src)
	r.kept = c.LastFilterKept
	r.state = c.State().(COMPSOState).RNG
	if r.compErr == nil {
		r.out, r.decompErr = c.Decompress(r.blob)
	}
	return r
}

func (r splitCall) diff(s splitCall) string {
	switch {
	case !bytes.Equal(r.blob, s.blob):
		return "blob"
	case fmt.Sprint(r.compErr) != fmt.Sprint(s.compErr):
		return fmt.Sprintf("Compress error %v, serial %v", r.compErr, s.compErr)
	case r.kept != s.kept:
		return fmt.Sprintf("kept %d, serial %d", r.kept, s.kept)
	case !bytes.Equal(r.state, s.state):
		return "PCG state after the call"
	case fmt.Sprint(r.decompErr) != fmt.Sprint(s.decompErr):
		return fmt.Sprintf("Decompress error %v, serial %v", r.decompErr, s.decompErr)
	}
	return sameFloats(r.out, s.out)
}

// sameFloats reports the first element where a and b differ in bits.
func sameFloats(a, b []float32) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d values, serial %d", len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return fmt.Sprintf("value %d: %g, serial %g", i, a[i], b[i])
		}
	}
	return ""
}

// TestCOMPSOSplitMatchesSerial is the split-identity matrix: at every
// GOMAXPROCS from 1 to 4, every size around the cutoff, rounding mode,
// filter setting and layout, the blob, the decoded values and the PCG state
// after the call equal the serial (GOMAXPROCS 1) ones. The input reaches
// two byte planes, and a copy with NaN near its end fails the same way
// (the layout is chosen after the NaN is found, so one layout runs it).
func TestCOMPSOSplitMatchesSerial(t *testing.T) {
	for _, n := range splitSizes {
		src := make([]float32, n)
		xrand.KFACGradient(xrand.NewSeeded(int64(n)), src, 2)
		bad := append([]float32(nil), src...)
		bad[n-70] = float32(math.NaN())
		for _, mode := range []quant.Mode{quant.SR, quant.RN, quant.P05} {
			for _, filter := range []bool{true, false} {
				for _, packed := range []bool{false, true} {
					mk := func() *COMPSO {
						c := NewCOMPSO(17)
						c.Rounding, c.FilterEnabled, c.BitPacked = mode, filter, packed
						return c
					}
					name := fmt.Sprintf("n=%d mode=%v filter=%v packed=%v", n, mode, filter, packed)
					var serial, serialBad splitCall
					atProcs(1, func() { serial, serialBad = roundTrip(mk(), src), roundTrip(mk(), bad) })
					if serial.compErr != nil || serial.decompErr != nil {
						t.Fatalf("%s: serial round trip: %v, %v", name, serial.compErr, serial.decompErr)
					}
					if !errors.Is(serialBad.compErr, ErrOutOfRange) {
						t.Fatalf("%s: NaN input: %v, want ErrOutOfRange", name, serialBad.compErr)
					}
					for procs := 2; procs <= 4; procs++ {
						atProcs(procs, func() {
							if d := roundTrip(mk(), src).diff(serial); d != "" {
								t.Errorf("%s GOMAXPROCS %d: %s differs", name, procs, d)
							}
							if packed {
								return
							}
							if d := roundTrip(mk(), bad).diff(serialBad); d != "" {
								t.Errorf("%s GOMAXPROCS %d, NaN input: %s differs", name, procs, d)
							}
						})
					}
				}
			}
		}
	}
}

// mutateBitmap returns blob with bit i of its decoded bitmap flipped and the
// bitmap re-encoded.
func mutateBitmap(t *testing.T, blob []byte, i int) []byte {
	t.Helper()
	b, err := parseCOMPSO(blob)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := b.codec.DecodeInto(make([]byte, 0, (b.n+7)/8), b.bitmap)
	if err != nil {
		t.Fatal(err)
	}
	bm[i>>3] ^= 1 << (i & 7)
	b.bitmap = b.codec.EncodeAppend(nil, bm)
	return b.appendTo(nil)
}

// mutateKept returns blob with its kept count moved by d.
func mutateKept(t *testing.T, blob []byte, d int) []byte {
	t.Helper()
	b, err := parseCOMPSO(blob)
	if err != nil {
		t.Fatal(err)
	}
	b.kept += d
	return b.appendTo(nil)
}

// mutateSection returns blob with section s (the bitmap when s < 0)
// replaced by the encoding of raw.
func mutateSection(t *testing.T, blob []byte, s int, raw []byte) []byte {
	t.Helper()
	b, err := parseCOMPSO(blob)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0 {
		b.bitmap = b.codec.EncodeAppend(nil, raw)
	} else {
		b.sections[s] = b.codec.EncodeAppend(nil, raw)
	}
	return b.appendTo(nil)
}

// TestCOMPSOSplitDecoderHostileBlobs puts corrupt and hostile blobs of a
// size that splits through the decoder at GOMAXPROCS 1 to 4: each gives the
// serial decoder's error (or values), no helper is left running, and with
// pool debug on every pooled buffer comes back.
func TestCOMPSOSplitDecoderHostileBlobs(t *testing.T) {
	defer pool.SetDebug(pool.DebugEnabled())
	const n = 2*splitMin + 77
	src := make([]float32, n)
	xrand.KFACGradient(xrand.NewSeeded(5), src, 2)
	blobs := map[string][]byte{}
	for _, packed := range []bool{false, true} {
		c := NewCOMPSO(3)
		c.BitPacked = packed
		blob, err := c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parseCOMPSO(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !packed && b.nSections != 2 {
			t.Fatalf("%d byte planes, want 2", b.nSections)
		}
		p := fmt.Sprintf("packed=%v/", packed)
		for _, cut := range []int{len(blob) / 3, len(blob) / 2, len(blob) - 1} {
			blobs[p+fmt.Sprintf("truncated at %d", cut)] = blob[:cut]
		}
		for i, at := range []int{len(blob) / 4, len(blob) / 2, 3 * len(blob) / 4, len(blob) - 5} {
			flipped := append([]byte(nil), blob...)
			flipped[at] ^= 0x5a
			blobs[p+fmt.Sprintf("byte flipped %d", i)] = flipped
		}
		// A kept value dropped at the first word, near the middle and in the
		// ragged tail; a filtered one kept (one more kept value than coded).
		firstKept := 0
		for firstKept < n && math.Abs(float64(src[firstKept])) < c.EBFilter {
			firstKept++
		}
		firstFiltered := 0
		for firstFiltered < n && math.Abs(float64(src[firstFiltered])) >= c.EBFilter {
			firstFiltered++
		}
		blobs[p+"bitmap drops a kept value"] = mutateBitmap(t, blob, firstKept)
		blobs[p+"bitmap keeps a filtered value"] = mutateBitmap(t, blob, firstFiltered)
		blobs[p+"bitmap flipped mid-tensor"] = mutateBitmap(t, blob, n/2+1)
		blobs[p+"bitmap flipped in the tail"] = mutateBitmap(t, blob, n-3)
		blobs[p+"bitmap short"] = mutateSection(t, blob, -1, make([]byte, (n+7)/8-1))
		blobs[p+"kept count +1"] = mutateKept(t, blob, 1)
		blobs[p+"kept count -1"] = mutateKept(t, blob, -1)
		if !packed {
			blobs[p+"plane 1 short"] = mutateSection(t, blob, 1, make([]byte, b.kept-1))
		}
		bomb := b
		bomb.sections[0] = redeclare(t, b.codec.EncodeAppend(nil, make([]byte, 8)), 1<<30)
		blobs[p+"plane bomb"] = bomb.appendTo(nil)
	}

	pool.SetDebug(true)
	dec := NewCOMPSO(0)
	warm, err := NewCOMPSO(3).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	atProcs(4, func() { _, err = dec.Decompress(warm) }) // starts 3 helpers
	if err != nil {
		t.Fatal(err)
	}
	helpersUp := runtime.NumGoroutine()
	live := pool.Stats().Live
	for name, blob := range blobs {
		var serial []float32
		var serialErr error
		atProcs(1, func() { serial, serialErr = dec.Decompress(blob) })
		for procs := 2; procs <= 4; procs++ {
			atProcs(procs, func() {
				out, err := dec.Decompress(blob)
				if fmt.Sprint(err) != fmt.Sprint(serialErr) || errors.Is(err, ErrCorrupt) != errors.Is(serialErr, ErrCorrupt) {
					t.Errorf("%s GOMAXPROCS %d: error %v, serial %v", name, procs, err, serialErr)
				} else if d := sameFloats(out, serial); err == nil && d != "" {
					t.Errorf("%s GOMAXPROCS %d: %s", name, procs, d)
				}
			})
		}
	}
	if got := pool.Stats().Live; got != live {
		t.Errorf("%d pooled buffers live after the hostile blobs, %d before", got, live)
	}
	if got := runtime.NumGoroutine(); got > helpersUp {
		t.Errorf("%d goroutines after the hostile blobs, %d before", got, helpersUp)
	}
}

// TestCOMPSOSplitConcurrentCallers runs split round trips from four
// goroutines at once, each on its own compressor and input, so the calls
// share the pool's helpers: every blob and decoded tensor equals the
// serial one. Run it under -race.
func TestCOMPSOSplitConcurrentCallers(t *testing.T) {
	const callers, rounds = 4, 3
	n := 2*splitMin + 77
	srcs := make([][]float32, callers)
	want := make([][]splitCall, callers)
	atProcs(1, func() {
		for g := range srcs {
			srcs[g] = make([]float32, n)
			xrand.KFACGradient(xrand.NewSeeded(int64(40+g)), srcs[g], 2)
			c := NewCOMPSO(int64(g))
			for r := 0; r < rounds; r++ {
				want[g] = append(want[g], roundTrip(c, srcs[g]))
			}
		}
	})
	atProcs(4, func() {
		var wg sync.WaitGroup
		for g := range srcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewCOMPSO(int64(g))
				for r := 0; r < rounds; r++ {
					if d := roundTrip(c, srcs[g]).diff(want[g][r]); d != "" {
						t.Errorf("caller %d round %d: %s differs", g, r, d)
					}
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkCOMPSOSplit times one Compress + Decompress round trip of a
// K-FAC gradient at 2^14 … 2^20 elements, serial (GOMAXPROCS 1, one part)
// beside split (every CPU), with the cutoff splitMin in force: the pair
// splitMin was set from.
func BenchmarkCOMPSOSplit(b *testing.B) {
	procs := []int{1}
	if runtime.NumCPU() > 1 {
		procs = append(procs, runtime.NumCPU())
	}
	for shift := 14; shift <= 20; shift++ {
		src := make([]float32, 1<<shift)
		xrand.KFACGradient(xrand.NewSeeded(3), src, 1.0)
		for _, p := range procs {
			b.Run(fmt.Sprintf("n=2^%d/procs=%d", shift, p), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				c := NewCOMPSO(1)
				b.SetBytes(int64(4 * len(src)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					blob, err := c.Compress(src)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.Decompress(blob); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
