package collective

import "math/bits"

// The autotuner picks the algorithm per (collective, message-size bucket,
// world size — fixed per engine). Selection is seeded from cost-model dry
// runs of each candidate schedule and refined by the measured simulated
// makespan of every executed collective (an EWMA per bucket), mirroring
// NCCL-style tuning where offline tables are corrected by online timings.

// seedCacheCap bounds the dry-run memo so pathological size diversity
// cannot grow it without bound.
const seedCacheCap = 4096

// ewmaAlpha is the refinement smoothing factor.
const ewmaAlpha = 0.2

// seedKey identifies one dry run: the schedule of (op, alg) over a size
// vector, which it holds as its FNV-1a hash (one 64-bit word a step; for
// the ops that take one total the hash is a bijection of it). Two
// all-gathers of equal total and different per-rank sizes are two keys.
type seedKey struct {
	op, alg string
	sizes   uint64
}

func sizesHash(sizes []int) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range sizes {
		h = (h ^ uint64(s)) * 1099511628211
	}
	return h
}

type tuneKey struct {
	op, alg string
	bucket  int // log2 of total wire bytes
}

type ewma struct {
	value float64
	count int
}

type autotuner struct {
	seeds    map[seedKey]float64
	measured map[tuneKey]*ewma
}

func newAutotuner() *autotuner {
	return &autotuner{
		seeds:    make(map[seedKey]float64),
		measured: make(map[tuneKey]*ewma),
	}
}

func sizeBucket(total int) int {
	if total <= 0 {
		return 0
	}
	return bits.Len(uint(total)) - 1
}

// estimate returns the tuner's current belief about alg's makespan for the
// spec: the measured EWMA for its size bucket when available, otherwise the
// cost-model dry run. Callers hold the engine mutex.
func (a *autotuner) estimate(e *Engine, alg string, sp spec) float64 {
	if m, ok := a.measured[tuneKey{op: sp.op, alg: alg, bucket: sizeBucket(sp.total())}]; ok && m.count > 0 {
		return m.value
	}
	return e.predictSeed(alg, sp)
}

// pick returns the menu algorithm with the lowest estimate (menu order
// breaks ties, so selection is deterministic). Callers hold the engine
// mutex.
func (a *autotuner) pick(e *Engine, sp spec) string {
	best, bestT := "", 0.0
	for _, alg := range e.Algorithms(sp.op) {
		t := a.estimate(e, alg, sp)
		if best == "" || t < bestT {
			best, bestT = alg, t
		}
	}
	return best
}

// record folds a measured simulated makespan into the bucket's EWMA.
func (a *autotuner) record(op, alg string, total int, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	k := tuneKey{op: op, alg: alg, bucket: sizeBucket(total)}
	m := a.measured[k]
	if m == nil {
		a.measured[k] = &ewma{value: seconds, count: 1}
		return
	}
	m.value += float64(ewmaAlpha * (seconds - m.value))
	m.count++
}
