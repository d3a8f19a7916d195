// Package stats provides the error metrics and distribution diagnostics the
// paper uses when comparing rounding modes: L2 norm of the compression
// error, PSNR, histograms, and a triangularity score that distinguishes the
// uniform error distribution of round-to-nearest from the triangular
// distribution of stochastic rounding (§4.2, Figure 5).
package stats

import (
	"fmt"
	"math"
)

// ErrorMetrics summarizes the pointwise difference between an original
// vector and its dequantized reconstruction.
type ErrorMetrics struct {
	L2       float64 // Euclidean norm of the error vector
	MaxAbs   float64 // largest absolute pointwise error
	MeanAbs  float64 // mean absolute pointwise error
	PSNR     float64 // peak signal-to-noise ratio in dB (+Inf for exact)
	MeanBias float64 // mean signed error; ~0 for unbiased rounding (SR)
}

// Compare computes ErrorMetrics between original and recovered. The slices
// must have equal length.
func Compare(original, recovered []float32) ErrorMetrics {
	if len(original) != len(recovered) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(original), len(recovered)))
	}
	var m ErrorMetrics
	if len(original) == 0 {
		m.PSNR = math.Inf(1)
		return m
	}
	var sumSq, sumAbs, sumSigned, peak float64
	for i := range original {
		e := float64(recovered[i]) - float64(original[i])
		sumSq += e * e
		sumAbs += math.Abs(e)
		sumSigned += e
		if a := math.Abs(float64(original[i])); a > peak {
			peak = a
		}
		if a := math.Abs(e); a > m.MaxAbs {
			m.MaxAbs = a
		}
	}
	n := float64(len(original))
	m.L2 = math.Sqrt(sumSq)
	m.MeanAbs = sumAbs / n
	m.MeanBias = sumSigned / n
	mse := sumSq / n
	if mse == 0 {
		m.PSNR = math.Inf(1)
	} else {
		m.PSNR = 20*math.Log10(peak) - 10*math.Log10(mse)
	}
	return m
}

// Histogram is a fixed-width binning of float64 samples over [Lo, Hi].
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int // total samples including out-of-range ones (clamped to edge bins)
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi].
// It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%g,%g) with %d bins", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample, clamping out-of-range values to the edge bins.
func (h *Histogram) Add(v float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.N++
}

// AddAll records each sample.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// Density returns the normalized bin heights (fractions summing to 1).
func (h *Histogram) Density() []float64 {
	d := make([]float64, len(h.Counts))
	if h.N == 0 {
		return d
	}
	for i, c := range h.Counts {
		d[i] = float64(c) / float64(h.N)
	}
	return d
}

// Triangularity scores how triangular (peaked at the center, linearly
// decaying to the edges) the histogram is, in [0, 1]: 1 for a perfect
// symmetric triangle, ~0 for a uniform distribution. It is the normalized
// correlation improvement of a fitted triangle over a fitted uniform.
//
// The paper's key empirical finding (§4.2) is that stochastic rounding
// produces a triangular error distribution while round-to-nearest and P0.5
// produce uniform ones; this score turns that visual comparison (Figure 5)
// into a testable number.
func (h *Histogram) Triangularity() float64 {
	d := h.Density()
	n := len(d)
	if n < 3 || h.N == 0 {
		return 0
	}
	uniform := 1.0 / float64(n)
	// Triangle template peaked at the center, normalized to sum 1.
	tri := make([]float64, n)
	var triSum float64
	center := float64(n-1) / 2
	for i := range tri {
		tri[i] = 1 - math.Abs(float64(i)-center)/(center+0.5)
		triSum += tri[i]
	}
	for i := range tri {
		tri[i] /= triSum
	}
	var sseUniform, sseTri float64
	for i := range d {
		du := d[i] - uniform
		dt := d[i] - tri[i]
		sseUniform += du * du
		sseTri += dt * dt
	}
	if sseUniform == 0 && sseTri == 0 {
		return 0 // exactly uniform
	}
	score := (sseUniform - sseTri) / (sseUniform + sseTri)
	return (score + 1) / 2 // map [-1,1] → [0,1]
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
