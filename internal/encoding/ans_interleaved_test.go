package encoding

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
)

// twoSymbols is a stream of n bytes, one in ten 0xFF and the rest zero: long
// enough to pass ansInterleaveMin while its encoding stays near 2 KB, so a
// test can afford to damage it at every byte.
func twoSymbols(n int) []byte {
	rng := rand.New(rand.NewPCG(3, 5))
	out := make([]byte, n)
	for i := range out {
		if rng.Float64() < 0.1 {
			out[i] = 0xFF
		}
	}
	return out
}

// ansLayout reports which layout enc is written in, from the byte after its
// length: layout 1 has its distinct-symbol count there (never 0), layout 2
// the 0x00 escape.
func ansLayout(t *testing.T, enc []byte) int {
	t.Helper()
	_, w, err := getUvarint(enc)
	if err != nil || w >= len(enc) {
		t.Fatalf("stream too short to hold a layout: % x", enc)
	}
	if enc[w] == 0 {
		return 2
	}
	return 1
}

// TestANSLayoutGate pins what selects the layout — the stream's length and
// nothing else — and what layout 2 costs: 14 bytes over layout 1's header.
func TestANSLayoutGate(t *testing.T) {
	for _, c := range []struct{ n, layout int }{
		{1, 1}, {ansInterleaveMin - 1, 1}, {ansInterleaveMin, 2}, {ansInterleaveMin + 1, 2}, {4 * ansInterleaveMin, 2},
	} {
		for name, src := range map[string][]byte{
			"constant": make([]byte, c.n), "two": twoSymbols(c.n), "plane": gradientPlane(c.n, 5),
		} {
			if got := ansLayout(t, ANS{}.Encode(src)); got != c.layout {
				t.Errorf("%s stream of %d bytes is written in layout %d, want %d", name, c.n, got, c.layout)
			}
		}
	}
	// One symbol at frequency 4096 never renormalizes, so both bodies are
	// empty and the difference is the header alone.
	src := make([]byte, 100)
	if d := len(ansEncodeAppend(nil, src, true)) - len(ansEncodeAppend(nil, src, false)); d != 14 {
		t.Errorf("layout 2 costs %d bytes over layout 1, want 14", d)
	}
}

// TestANSInterleavedRoundTrip puts streams of every length 1..67 (every tail
// length, and lanes that never see a symbol) and a few long ones through
// layout 2, and checks the serial layout on the same inputs.
func TestANSInterleavedRoundTrip(t *testing.T) {
	lens := []int{1000, 4097, ansInterleaveMin + 2}
	for n := 1; n <= 67; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		for name, src := range map[string][]byte{
			"constant": bytes.Repeat([]byte{9}, n), "two": twoSymbols(n), "plane": gradientPlane(n, uint64(n)),
		} {
			for _, interleave := range []bool{true, false} {
				enc := ansEncodeAppend(nil, src, interleave)
				dec, err := ANS{}.Decode(enc)
				if err != nil {
					t.Fatalf("%s n=%d interleave=%v: %v", name, n, interleave, err)
				}
				if !bytes.Equal(dec, src) {
					t.Fatalf("%s n=%d interleave=%v: round trip differs", name, n, interleave)
				}
			}
		}
	}
}

// TestANSInterleavedRejectsDamage is the integrity contract of layout 2: a
// stream cut short anywhere, extended by anything, or with any bit of any
// lane's state flipped does not decode — ErrCorrupt, and no panic.
func TestANSInterleavedRejectsDamage(t *testing.T) {
	streams := map[string][]byte{
		"two/gate":  ANS{}.Encode(twoSymbols(ansInterleaveMin + 3)),
		"plane/4K":  ansEncodeAppend(nil, gradientPlane(4099, 3), true),
		"plane/7":   ansEncodeAppend(nil, gradientPlane(7, 4), true),
		"plane/2":   ansEncodeAppend(nil, gradientPlane(2, 5), true),
		"constant":  ansEncodeAppend(nil, make([]byte, 50), true),
		"plane/big": ANS{}.Encode(gradientPlane(3*ansInterleaveMin+1, 6)),
	}
	for name, enc := range streams {
		if ansLayout(t, enc) != 2 {
			t.Fatalf("%s: not an interleaved stream", name)
		}
		if _, err := (ANS{}).Decode(enc); err != nil {
			t.Fatalf("%s: undamaged stream: %v", name, err)
		}
		reject := func(what string, damaged []byte) {
			t.Helper()
			if _, err := (ANS{}).Decode(damaged); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s, %s: err = %v, want ErrCorrupt", name, what, err)
			}
		}

		// Truncation at every byte; the longest stream at every 61st.
		step := 1
		if len(enc) > 1<<14 {
			step = 61
		}
		for cut := 0; cut < len(enc); cut += step {
			reject(fmt.Sprintf("cut to %d of %d bytes", cut, len(enc)), enc[:cut])
		}
		reject("last byte cut", enc[:len(enc)-1])

		for _, tail := range [][]byte{{0}, {0xFF}, {0, 0}, {0x12, 0x34}, make([]byte, 8), bytes.Repeat([]byte{0xA5}, 9)} {
			reject(fmt.Sprintf("% x appended", tail), append(append([]byte{}, enc...), tail...))
		}

		// Any other lane count is a layout this decoder does not know.
		_, w, _ := getUvarint(enc)
		for _, lanes := range []byte{0, 1, 2, 3, 5, 8, 255} {
			damaged := append([]byte{}, enc...)
			damaged[w+1] = lanes
			reject(fmt.Sprintf("lane count %d", lanes), damaged)
		}

		// A state is data as much as the body is — in the two-symbol
		// streams above, flipping bit 11 of a lane's state spells the other
		// symbol, and that is a valid stream. What the end-state check buys
		// is that over a stream of any length a flipped state has to walk
		// back to 2^16 on its own, so the flips are tried on the long ones.
		if n, _, _ := getUvarint(enc); n < 1000 {
			continue
		}
		states := ansStatesOffset(t, enc)
		for lane := 0; lane < ansLanes; lane++ {
			for bit := 0; bit < 32; bit++ {
				damaged := append([]byte{}, enc...)
				damaged[states+4*lane+bit/8] ^= 1 << (bit % 8)
				reject(fmt.Sprintf("lane %d state bit %d flipped", lane, bit), damaged)
			}
		}

	}
}

// ansStatesOffset walks an interleaved stream's header and returns where its
// four states start.
func ansStatesOffset(t *testing.T, enc []byte) int {
	t.Helper()
	_, off, err := getUvarint(enc)
	if err != nil {
		t.Fatal(err)
	}
	off += 2 // escape, lane count
	distinct, w, err := getUvarint(enc[off:])
	if err != nil {
		t.Fatal(err)
	}
	off += w
	for i := uint64(0); i < distinct; i++ {
		_, w, err := getUvarint(enc[off+1:])
		if err != nil {
			t.Fatal(err)
		}
		off += 1 + w
	}
	return off
}

// TestNormalizedFreqsMatchesOneTable checks the four-table histogram against
// the plain count it replaced, on lengths around its 8-byte stride and on
// runs, which are what it exists for.
func TestNormalizedFreqsMatchesOneTable(t *testing.T) {
	oneTable := func(src []byte) (counts [256]int) {
		for _, b := range src {
			counts[b]++
		}
		return counts
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 1000, 4096, 40001} {
		runs := make([]byte, n)
		for i := range runs {
			runs[i] = byte(i / 300)
		}
		for name, src := range map[string][]byte{"plane": gradientPlane(n, uint64(n)), "runs": runs, "one": bytes.Repeat([]byte{0xFF}, n)} {
			counts := oneTable(src)
			freq := normalizedFreqs(src)
			var sum uint32
			for s, f := range freq {
				sum += f
				if (f == 0) != (counts[s] == 0) {
					t.Fatalf("%s n=%d: symbol %d counted %d times has frequency %d", name, n, s, counts[s], f)
				}
			}
			if sum != ansProbScale {
				t.Fatalf("%s n=%d: frequencies sum to %d", name, n, sum)
			}
			// Same input in another order: the histogram, and so the
			// table, must not depend on which of the four tables a byte
			// was counted in.
			shuffled := append([]byte{}, src...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if normalizedFreqs(shuffled) != freq {
				t.Fatalf("%s n=%d: frequencies depend on byte order", name, n)
			}
		}
	}
}
