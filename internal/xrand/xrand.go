// Package xrand centralizes the deterministic random-number generation used
// across the repository. Every stochastic component (stochastic rounding,
// synthetic data generation, model initialization, CocktailSGD sampling)
// takes an explicit *rand.Rand created here, so experiments are reproducible
// bit-for-bit from their seeds.
package xrand

import "math/rand/v2"

// New returns a PCG-based generator seeded from the two words.
func New(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

// NewPCG returns the raw PCG source that NewSeeded(seed) wraps, for hot
// loops that want devirtualized draws: rand.New(NewPCG(seed)) produces
// exactly the NewSeeded(seed) stream, and drawing from the PCG directly
// advances that same stream.
func NewPCG(seed int64) *rand.PCG {
	return rand.NewPCG(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15+1)
}

// NewSeeded returns a generator from a single int seed, convenient for
// experiment configs.
func NewSeeded(seed int64) *rand.Rand {
	return New(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15+1)
}

// Fill fills dst with standard-normal float32 values scaled by sigma.
func Fill(rng *rand.Rand, dst []float32, sigma float64) {
	for i := range dst {
		dst[i] = float32(rng.NormFloat64() * sigma)
	}
}

// FillUniform fills dst with uniform values in [lo, hi).
func FillUniform(rng *rand.Rand, dst []float32, lo, hi float64) {
	for i := range dst {
		dst[i] = float32(lo + rng.Float64()*(hi-lo))
	}
}

// KFACGradient fills dst with values following the heavy-tailed mixture the
// paper describes for K-FAC preconditioned gradients: most mass concentrated
// near zero (the part COMPSO's filter removes) plus a wider Gaussian tail
// and occasional large-magnitude entries — a larger dynamic range than SGD
// gradients (§3).
func KFACGradient(rng *rand.Rand, dst []float32, scale float64) {
	for i := range dst {
		u := rng.Float64()
		switch {
		case u < 0.85:
			// Near-zero bulk: tight Gaussian, almost entirely below the
			// paper's 4e-3 filter bound.
			dst[i] = float32(rng.NormFloat64() * 0.0015 * scale)
		case u < 0.98:
			// Body of the distribution.
			dst[i] = float32(rng.NormFloat64() * 0.04 * scale)
		default:
			// Heavy tail giving K-FAC gradients their large range.
			dst[i] = float32(rng.NormFloat64() * 0.12 * scale)
		}
	}
}

// SGDGradient fills dst with a narrower, lighter-tailed distribution typical
// of raw SGD gradients, used for contrast experiments.
func SGDGradient(rng *rand.Rand, dst []float32, scale float64) {
	for i := range dst {
		u := rng.Float64()
		if u < 0.85 {
			dst[i] = float32(rng.NormFloat64() * 0.01 * scale)
		} else {
			dst[i] = float32(rng.NormFloat64() * 0.05 * scale)
		}
	}
}

// Shuffle permutes idx in place.
func Shuffle(rng *rand.Rand, idx []int) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}
