package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"compso/internal/encoding"
	"compso/internal/quant"
	"compso/internal/xrand"
)

// CocktailSGD implements the CocktailSGD baseline [Wang et al., ICML'23]:
// top-k sparsification with random-sample threshold estimation followed by
// 8-bit stochastic-rounding quantization of the kept values. The paper runs
// it at 20% density with 8-bit quantization, a fixed ~20× compression
// ratio; COMPSO's relative-threshold filter adapts instead of always
// zeroing the same fraction (§5.2).
type CocktailSGD struct {
	// KeepFraction is the fraction of largest-magnitude values kept
	// (the paper's "20% sparsity" configuration keeps 0.20).
	KeepFraction float64
	// Bits is the quantization width for kept values (8 in the paper).
	Bits int
	// SampleSize bounds the random sample used to estimate the top-k
	// threshold, CocktailSGD's trick for avoiding a full sort.
	SampleSize int
	rng        *rand.Rand
}

// NewCocktailSGD returns a CocktailSGD compressor with the paper's
// configuration knobs.
func NewCocktailSGD(keep float64, bitWidth int, seed int64) *CocktailSGD {
	return &CocktailSGD{KeepFraction: keep, Bits: bitWidth, SampleSize: 1024, rng: xrand.NewSeeded(seed)}
}

// Name implements Compressor.
func (c *CocktailSGD) Name() string {
	return fmt.Sprintf("CocktailSGD-%d%%-%dbit", int(c.KeepFraction*100), c.Bits)
}

// Compress implements Compressor.
func (c *CocktailSGD) Compress(src []float32) ([]byte, error) {
	if c.KeepFraction <= 0 || c.KeepFraction > 1 {
		return nil, fmt.Errorf("compress: CocktailSGD keep fraction %g outside (0,1]", c.KeepFraction)
	}
	threshold := c.estimateThreshold(src)

	// Select indices above the estimated threshold, in order.
	idx := make([]int, 0, int(float64(len(src))*c.KeepFraction)+16)
	vals := make([]float32, 0, cap(idx))
	for i, v := range src {
		if math.Abs(float64(v)) >= threshold {
			idx = append(idx, i)
			vals = append(vals, v)
		}
	}

	levels, scale := quant.QuantizeFixed(vals, c.Bits, quant.SR, c.rng)

	// Kept positions as an ANS-compressed bitmap: with density p the index
	// overhead approaches the H(p) entropy bound instead of a varint per
	// index.
	bitmap := make([]byte, (len(src)+7)/8)
	for _, i := range idx {
		bitmap[i/8] |= 1 << (i % 8)
	}
	encBitmap := encoding.ANS{}.EncodeAppend(nil, bitmap)

	out := putHeader(nil, magicCocktail, len(src))
	out = putFloat64(out, scale)
	out = binary.AppendUvarint(out, uint64(len(idx)))
	out = binary.AppendUvarint(out, uint64(len(encBitmap)))
	out = append(out, encBitmap...)
	packed := quant.PackCodes(levels)
	return append(out, packed...), nil
}

// estimateThreshold samples values to find the magnitude cutoff keeping
// approximately KeepFraction of the elements.
func (c *CocktailSGD) estimateThreshold(src []float32) float64 {
	if len(src) == 0 {
		return 0
	}
	sample := make([]float64, 0, c.SampleSize)
	if len(src) <= c.SampleSize {
		for _, v := range src {
			sample = append(sample, math.Abs(float64(v)))
		}
	} else {
		for i := 0; i < c.SampleSize; i++ {
			sample = append(sample, math.Abs(float64(src[c.rng.IntN(len(src))])))
		}
	}
	sort.Float64s(sample)
	cut := int(float64(len(sample)) * (1 - c.KeepFraction))
	if cut >= len(sample) {
		cut = len(sample) - 1
	}
	if cut < 0 {
		cut = 0
	}
	return sample[cut]
}

// Decompress implements Compressor.
func (c *CocktailSGD) Decompress(data []byte) ([]float32, error) {
	n, rest, err := getHeader(data, magicCocktail, "CocktailSGD")
	if err != nil {
		return nil, err
	}
	scale, rest, err := getFloat64(rest, "CocktailSGD")
	if err != nil {
		return nil, err
	}
	k, used := binary.Uvarint(rest)
	if used <= 0 || k > uint64(n) {
		return nil, fmt.Errorf("%w: CocktailSGD: bad kept count", ErrCorrupt)
	}
	rest = rest[used:]
	bmLen, used := binary.Uvarint(rest)
	if used <= 0 || bmLen > uint64(len(rest)-used) {
		return nil, fmt.Errorf("%w: CocktailSGD: bad bitmap length", ErrCorrupt)
	}
	rest = rest[used:]
	bitmap, err := encoding.ANS{}.DecodeInto(make([]byte, 0, (n+7)/8), rest[:bmLen])
	if err != nil {
		return nil, fmt.Errorf("%w: CocktailSGD bitmap: %v", ErrCorrupt, err)
	}
	rest = rest[bmLen:]
	if len(bitmap) < (n+7)/8 {
		return nil, fmt.Errorf("%w: CocktailSGD: bitmap too short", ErrCorrupt)
	}
	idx := make([]int, 0, k)
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			idx = append(idx, i)
		}
	}
	if uint64(len(idx)) != k {
		return nil, fmt.Errorf("%w: CocktailSGD: bitmap has %d set bits, want %d", ErrCorrupt, len(idx), k)
	}
	levels, err := quant.UnpackCodes(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: CocktailSGD: %v", ErrCorrupt, err)
	}
	if uint64(len(levels)) != k {
		return nil, fmt.Errorf("%w: CocktailSGD: %d levels for %d indices", ErrCorrupt, len(levels), k)
	}
	vals := quant.DequantizeFixed(levels, scale)
	out := make([]float32, n)
	for i, pos := range idx {
		out[pos] = vals[i]
	}
	return out, nil
}
