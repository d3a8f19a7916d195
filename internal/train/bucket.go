package train

import (
	"compso/internal/nn"
	"compso/internal/pool"
)

// Tensor-fusion bucketing for the gradient all-reduce: consecutive
// parameter tensors pack into buckets whose FP32 wire size stays at or
// below a cap, so the exchange becomes a short pipeline of fused
// collectives. The overlap schedule caps buckets at Config.FusionBytes
// (~25 MB by default, ACP-SGD's policy); the sequential schedule is the
// same code with no cap, i.e. one whole-model bucket. Tensors are never
// split across buckets and buckets keep the flatten order, so the
// element-wise rank-order sums inside each bucket are exactly the sums a
// single whole-model all-reduce computes — which is what keeps every
// bucketing bit-identical (DESIGN.md §8).

// bucket is one fused range: tensors [start, end) of the parameter list,
// elems float64 gradient values in total.
type bucket struct {
	start, end int
	elems      int
}

// fuseBuckets greedily packs consecutive tensor sizes into buckets of at
// most limitBytes on the wire (4 bytes per element, FP32). A tensor larger
// than the limit gets its own bucket.
func fuseBuckets(sizes []int, limitBytes int) []bucket {
	limitElems := limitBytes / 4
	if limitElems < 1 {
		limitElems = 1
	}
	var out []bucket
	cur := bucket{}
	for i, n := range sizes {
		if cur.end > cur.start && cur.elems+n > limitElems {
			out = append(out, cur)
			cur = bucket{start: i}
		}
		cur.end = i + 1
		cur.elems += n
	}
	if cur.end > cur.start {
		out = append(out, cur)
	}
	return out
}

// flattenGrads appends the tensors' gradients to dst in flatten order —
// the one staging layout the fused all-reduce buckets (float64), the blob
// all-gather and the low-rank ring (float32) all exchange.
func flattenGrads[T float32 | float64](dst []T, params []*nn.Param) []T {
	for _, p := range params {
		for _, v := range p.Grad.Data {
			dst = append(dst, T(v))
		}
	}
	return dst
}

// scatterGrads is flattenGrads' inverse: it writes scale·src back into the
// tensors' gradients.
func scatterGrads[T float32 | float64](params []*nn.Param, src []T, scale float64) {
	pos := 0
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = float64(src[pos]) * scale
			pos++
		}
	}
}

// flatGrads32 is the whole-model gradient in float32, flatten order, in an
// arena buffer the caller hands back via pool.PutF32 — what the compressed
// first-order exchanges (blob all-gather, low-rank ring) compress.
func flatGrads32(params []*nn.Param) []float32 {
	total := 0
	for _, p := range params {
		total += len(p.Grad.Data)
	}
	return flattenGrads(pool.F32(total)[:0], params)
}
