// Package perfmodel implements the paper's performance model (§4.4): an
// offline lookup table mapping (message size, GPU count) to communication
// throughput on each platform, the Eq. 5 communication-speedup estimate
// combining compression ratio with (de)compression overhead, the end-to-end
// speedup projection ((1−r) + r/s)⁻¹, and the two decisions the model
// drives — the layer-aggregation factor m and the lossless encoder choice.
//
// The paper builds the lookup table from offline micro-benchmarks on each
// system; here it is generated from the simulated cluster's collective
// engine, which plays the role of those measurements. The online half (compressed sizes and
// compressor throughput from the first k warmup iterations) comes from real
// compression of real gradient data in the experiments.
package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"compso/internal/cluster"
)

// LookupTable is the offline (message size × GPU count) → all-gather
// throughput table for one platform. Queries interpolate between the
// benchmarked sizes on a log scale, exactly like querying a measured table.
type LookupTable struct {
	sizes  []int // ascending message sizes in bytes
	counts []int // ascending GPU counts
	// tput[ci][si] is effective all-gather throughput (bytes/s of own-chunk
	// payload) for counts[ci], sizes[si].
	tput [][]float64
}

// BuildLookupTable benchmarks the platform's all-gather across the given
// GPU counts and a geometric ladder of message sizes (1 KB .. 256 MB). Each
// (size, GPU count) cell is the step-level collective engine's predicted
// all-gather time on the platform's topology, so the table reflects the
// schedule the engine would actually dispatch (hierarchical inter-node,
// ring intra-node, …), link contention included. This is the stand-in for
// the paper's offline micro-benchmarks, which likewise measure whatever
// schedule the real library picks.
func BuildLookupTable(cfg cluster.Config, gpuCounts []int) (*LookupTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gpuCounts) == 0 {
		return nil, fmt.Errorf("perfmodel: no GPU counts")
	}
	counts := append([]int(nil), gpuCounts...)
	sort.Ints(counts)
	var sizes []int
	for s := 1 << 10; s <= 1<<28; s <<= 1 {
		sizes = append(sizes, s)
	}
	t := &LookupTable{sizes: sizes, counts: counts}
	for _, p := range counts {
		eng := cluster.EngineFor(cfg, p)
		row := make([]float64, len(sizes))
		for i, sz := range sizes {
			_, sec := eng.PredictAllGather(sz)
			if sec <= 0 {
				// Single GPU: communication is free; use an effectively
				// infinite throughput stand-in.
				row[i] = math.Inf(1)
				continue
			}
			row[i] = float64(sz) / sec
		}
		t.tput = append(t.tput, row)
	}
	return t, nil
}

// Throughput returns the interpolated all-gather throughput (bytes/s of
// per-worker chunk) for a message of the given size across p GPUs. Sizes
// and counts outside the table clamp to its edges.
func (t *LookupTable) Throughput(sizeBytes, p int) float64 {
	ci := t.nearestCountIndex(p)
	row := t.tput[ci]
	if sizeBytes <= t.sizes[0] {
		return row[0]
	}
	last := len(t.sizes) - 1
	if sizeBytes >= t.sizes[last] {
		return row[last]
	}
	hi := sort.SearchInts(t.sizes, sizeBytes)
	lo := hi - 1
	// Log-linear interpolation between bucket endpoints.
	f := (math.Log(float64(sizeBytes)) - math.Log(float64(t.sizes[lo]))) /
		(math.Log(float64(t.sizes[hi])) - math.Log(float64(t.sizes[lo])))
	return row[lo]*(1-f) + row[hi]*f
}

func (t *LookupTable) nearestCountIndex(p int) int {
	best, bestDiff := 0, math.MaxInt
	for i, c := range t.counts {
		d := c - p
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

// OnlineProfile holds the quantities measured during the first k warmup
// iterations (§4.4): compressed fraction and compressor throughputs on
// real K-FAC gradients, plus the communication-to-iteration-time ratio.
type OnlineProfile struct {
	// CompressionRatio is Lo/Lc measured on real gradient data.
	CompressionRatio float64
	// CompressBps and DecompressBps are the compressor's throughput in
	// input bytes per second.
	CompressBps   float64
	DecompressBps float64
	// CommRatio is r: the fraction of iteration time spent communicating
	// without compression.
	CommRatio float64
}

// Validate reports profile errors.
func (p OnlineProfile) Validate() error {
	if p.CompressionRatio < 1 || p.CompressBps <= 0 || p.DecompressBps <= 0 {
		return fmt.Errorf("perfmodel: implausible profile %+v", p)
	}
	if p.CommRatio < 0 || p.CommRatio > 1 {
		return fmt.Errorf("perfmodel: comm ratio %g outside [0,1]", p.CommRatio)
	}
	return nil
}

// CommSpeedup evaluates Eq. 5: the estimated communication speedup when
// layers are aggregated in groups of m, compressed at the profile's ratio
// and throughputs, and all-gathered across p GPUs. layerBytes are the
// per-layer gradient sizes of the layers this worker owns.
func (t *LookupTable) CommSpeedup(layerBytes []int, p, m int, prof OnlineProfile) (float64, error) {
	if m < 1 {
		return 0, fmt.Errorf("perfmodel: aggregation factor %d", m)
	}
	if err := prof.Validate(); err != nil {
		return 0, err
	}
	if len(layerBytes) == 0 {
		return 1, nil
	}
	var tOrig, tComp float64
	for g := 0; g < len(layerBytes); g += m {
		end := min(g+m, len(layerBytes))
		group := 0
		for _, b := range layerBytes[g:end] {
			group += b
		}
		if group == 0 {
			continue
		}
		tOrig += float64(group) / t.Throughput(group, p)
		cBytes := float64(group) / prof.CompressionRatio
		tComp += cBytes/t.Throughput(int(cBytes), p) +
			float64(group)/prof.CompressBps +
			cBytes/prof.DecompressBps
	}
	if tComp == 0 {
		return 1, nil
	}
	return tOrig / tComp, nil
}

// EndToEnd converts a communication speedup s into the projected iteration
// speedup ((1−r) + r/s)⁻¹ for communication fraction r — the paper's
// closing formula in §4.4.
func EndToEnd(r, s float64) float64 {
	if s <= 0 {
		return 0
	}
	return 1 / ((1 - r) + r/s)
}

// AggregationCandidates is the m sweep the model considers.
var AggregationCandidates = []int{1, 2, 4, 8, 16}

// BestAggregation returns the aggregation factor maximizing the projected
// end-to-end speedup — the COMPSO-p policy (COMPSO-f fixes m = 4).
func (t *LookupTable) BestAggregation(layerBytes []int, p int, prof OnlineProfile) (int, float64, error) {
	bestM, bestGain := 1, 0.0
	for _, m := range AggregationCandidates {
		s, err := t.CommSpeedup(layerBytes, p, m, prof)
		if err != nil {
			return 0, 0, err
		}
		gain := EndToEnd(prof.CommRatio, s)
		if gain > bestGain {
			bestM, bestGain = m, gain
		}
	}
	return bestM, bestGain, nil
}

// EncoderMeasurement is one encoder's warmup profiling result on real
// gradient data (§4.4's online half of the offline-online mechanism).
type EncoderMeasurement struct {
	Name string
	// CompressionRatio is the overall pipeline ratio with this encoder.
	CompressionRatio float64
	// CompressBps and DecompressBps are pipeline throughputs with this
	// encoder, in input bytes/second.
	CompressBps   float64
	DecompressBps float64
}

// SelectEncoder picks the encoder maximizing projected end-to-end speedup
// for the given owned-layer sizes: the paper's rule of "smaller Lc and low
// overall compression overhead" made precise by Eq. 5.
func (t *LookupTable) SelectEncoder(layerBytes []int, p, m int, commRatio float64, ms []EncoderMeasurement) (EncoderMeasurement, error) {
	if len(ms) == 0 {
		return EncoderMeasurement{}, fmt.Errorf("perfmodel: no encoder measurements")
	}
	best := ms[0]
	bestGain := -1.0
	for _, e := range ms {
		prof := OnlineProfile{
			CompressionRatio: e.CompressionRatio,
			CompressBps:      e.CompressBps,
			DecompressBps:    e.DecompressBps,
			CommRatio:        commRatio,
		}
		s, err := t.CommSpeedup(layerBytes, p, m, prof)
		if err != nil {
			return EncoderMeasurement{}, fmt.Errorf("perfmodel: encoder %s: %w", e.Name, err)
		}
		if gain := EndToEnd(commRatio, s); gain > bestGain {
			best, bestGain = e, gain
		}
	}
	return best, nil
}
