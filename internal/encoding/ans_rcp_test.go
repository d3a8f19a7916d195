package encoding

import "testing"

// TestANSReciprocalExact verifies the encoder's state update where it could
// first go wrong: for every normalized frequency f in [1, ansProbScale], put
// — whose x/f is a widening multiply by 2^44/f + 1 — must equal
// (x/f)<<12 + x%f + cum at every state a renormalized encoder can hold. That
// is x < f·2^19 in layout 1 and x < f·2^20 <= 2^32 in layout 2, whose range
// contains the other's; checked at the division boundaries, where an
// off-by-one would first appear, and on a sweep.
func TestANSReciprocalExact(t *testing.T) {
	for f := uint32(1); f <= ansProbScale; f++ {
		// f as the second symbol, so that cum is not 0 (unless f is 4096).
		var freq [256]uint32
		freq[0], freq[1] = ansProbScale-f, f
		var tab [256]ansEncSym
		buildEncTable(&tab, &freq, 32-ansProbBits)
		e, cum := &tab[1], ansProbScale-f
		top := uint64(f) << 20 // one past the largest state
		if uint64(e.xTop) != top-1 {
			t.Fatalf("f=%d: xTop = %d, want %d", f, e.xTop, top-1)
		}
		check := func(x64 uint64) {
			x := uint32(x64)
			if got, want := e.put(x), (x/f)<<ansProbBits+x%f+cum; got != want {
				t.Fatalf("f=%d x=%d: put = %d, want %d (quotient %d)", f, x, got, want, x/f)
			}
		}
		check(0)
		check(1)
		check(top - 1)
		for _, edge := range []uint64{top, top / 2, 1 << 31, 1 << 16} { // layout 2's, layout 1's, the old proof's and the lane bound
			for k := uint64(0); k <= 8; k++ {
				if mult := (edge/uint64(f) - k) * uint64(f); mult >= 1 && mult < top {
					check(mult)
					check(mult - 1)
					if mult+1 < top {
						check(mult + 1)
					}
				}
			}
		}
		for x := uint64(0); x < top; x += top/97 + 1 {
			check(x)
		}
	}
}
