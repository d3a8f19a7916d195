package train

import (
	"fmt"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/gpusim"
	"compso/internal/nn"
	"compso/internal/pool"
)

// This file is the low-rank aggregation path: when the configured
// compressor is AllReducible (PowerSGD, optionally EF-wrapped), the
// gradient exchange is ACP-SGD's alternating factor ring all-reduce on the
// collective engine instead of the blob all-gather — the factors aggregate
// as a sum, so the engine's ring/reduce-scatter schedules apply directly
// and the wire volume drops from world·blob to one factor.

// compressorPipe returns the kernel pipeline modeling a compressor's
// compression cost: the low-rank family charges its GEMM-shaped pipeline,
// everything else the default fused COMPSO kernel.
func compressorPipe(c compress.Compressor) gpusim.Pipeline {
	inner := c
	if ef, ok := c.(*compress.ErrorFeedback); ok {
		inner = ef.Inner
	}
	if _, ok := inner.(*compress.PowerSGD); ok {
		return gpusim.PowerSGDGEMM()
	}
	return gpusim.COMPSOFused()
}

// ringCompressor unwraps an (optionally error-feedback-wrapped)
// sum-aggregable compressor. An EF wrapper around a non-AllReducible inner
// returns (nil, nil): the stack falls back to the all-gather path.
func ringCompressor(comp compress.Compressor) (compress.AllReducible, *compress.ErrorFeedback) {
	if ef, ok := comp.(*compress.ErrorFeedback); ok {
		if ar, ok := ef.Inner.(compress.AllReducible); ok {
			return ar, ef
		}
		return nil, nil
	}
	ar, _ := comp.(compress.AllReducible)
	return ar, nil
}

// lowrankSync runs one alternating-factor gradient synchronization: local
// projection onto this step's factor, ring all-reduce of the factor sum,
// and the shared reconstruction + factor-state advance on every worker.
// The restored gradient is already the world average. EF correction and
// residual update bracket the exchange when ef is non-nil; the residual is
// taken against the aggregated reconstruction, matching the PowerSGD EF
// formulation.
func lowrankSync(w *cluster.Worker, model *nn.Sequential, ar compress.AllReducible,
	ef *compress.ErrorFeedback, tel *tele, cr *crAccum, category string) error {
	params := model.Params()
	flat := flatGrads32(params)
	defer pool.PutF32(flat)
	total := len(flat)
	src := flat
	if ef != nil {
		corrected, err := ef.Corrected(flat)
		if err != nil {
			return err
		}
		src = corrected
	}
	vec, err := ar.ReduceFactor(src)
	if err != nil {
		return err
	}
	// The collective charges FP32 wire bytes for float64 payloads, so the
	// factor costs 4·len(vec) on the wire — that is the compressed size
	// for CR accounting and span attribution.
	wire := 4 * len(vec)
	tel.compress(gpusim.PowerSGDGEMM(), total, wire, category)
	recordCR(total, wire, cr)
	w.AllReduce(vec, category)
	restored, err := ar.InstallReduced(vec, w.Size())
	if err != nil {
		return err
	}
	tel.decompress(gpusim.PowerSGDGEMM(), total, wire, category)
	if len(restored) != total {
		return fmt.Errorf("%w: train: low-rank restore %d values, want %d",
			compress.ErrCorrupt, len(restored), total)
	}
	if ef != nil {
		if err := ef.Observe(src, restored); err != nil {
			return err
		}
	}
	scatterGrads(params, restored, 1)
	return nil
}
