package quant

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// rand.PCG's state is a 128-bit LCG, state ← state·pcgMul + pcgInc (mod
// 2^128), with the constants of math/rand/v2's pcg.go; Uint64 steps it once
// and mixes the new state into the output.
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
)

// u128 is a 128-bit integer modulo 2^128.
type u128 struct{ hi, lo uint64 }

func (a u128) mul(b u128) u128 {
	hi, lo := bits.Mul64(a.lo, b.lo)
	return u128{hi + a.hi*b.lo + a.lo*b.hi, lo}
}

func (a u128) add(b u128) u128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, c)
	return u128{hi, lo}
}

// AdvancePCG moves p forward by n draws in O(log n) steps: afterwards p is
// in the state n calls of p.Uint64 would leave it in. It composes the LCG
// step with itself by squaring (Brown, "Random number generation with
// arbitrary strides", 1994) and reads and writes p through its
// MarshalBinary encoding ("pcg:", then the high and low state words, big
// endian).
func AdvancePCG(p *rand.PCG, n uint64) {
	if n == 0 {
		return
	}
	b, err := p.MarshalBinary()
	if err != nil || len(b) != 20 {
		panic(fmt.Sprintf("quant: PCG encoding of %d bytes: %v", len(b), err))
	}
	state := u128{binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:])}
	accMul, accInc := u128{0, 1}, u128{}
	curMul, curInc := u128{pcgMulHi, pcgMulLo}, u128{pcgIncHi, pcgIncLo}
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			accMul = accMul.mul(curMul)
			accInc = accInc.mul(curMul).add(curInc)
		}
		curInc = curMul.add(u128{0, 1}).mul(curInc)
		curMul = curMul.mul(curMul)
	}
	state = accMul.mul(state).add(accInc)
	binary.BigEndian.PutUint64(b[4:], state.hi)
	binary.BigEndian.PutUint64(b[12:], state.lo)
	if err := p.UnmarshalBinary(b); err != nil {
		panic(fmt.Sprintf("quant: PCG decoding: %v", err))
	}
}
