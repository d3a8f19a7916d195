package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"compso/internal/cluster"
	"compso/internal/collective"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/gpusim"
	"compso/internal/modelzoo"
	"compso/internal/xrand"
)

// The overlap judge: for every modelzoo profile, price one K-FAC+COMPSO
// training step on the tuned collective engine and the A100 device model
// twice — once under the sequential schedule (every collective blocks at
// its call site) and once under the overlap scheduler's pipeline
// (internal/train/step.go): fused gradient buckets and the covariance
// all-reduce launched before the owned-layer eigendecompositions, and the
// per-group preconditioned exchange software-pipelined so round r's
// all-gather rides under round r+1's precondition+compress compute. The
// COMPSO blob sizes are measured, not assumed — each layer's synthetic
// gradient is compressed for real and the blob scaled to the full layer.
// That the trainer's two schedules give bit-identical answers while the
// overlap gauge moves is internal/train's test contract
// (TestOverlapBitIdentityMatrix, TestOverlapHidesCommunication).

// overlapWorkers is the simulated GPU count the judge prices
// collectives for.
const overlapWorkers = 8

// overlapFusionBytes is the judged bucket cap — the trainer's default.
const overlapFusionBytes = 25 << 20

// overlapAggregationM is the judged layers-per-exchange-round grouping.
const overlapAggregationM = 2

// OverlapRow is one profile's judged comparison.
type OverlapRow struct {
	Model  string `json:"model"`
	Layers int    `json:"layers"`
	// Buckets is how many fused gradient buckets the 25 MB cap yields.
	Buckets int `json:"buckets"`
	// SeqStepSec and OverlapStepSec are engine-predicted seconds for one
	// K-FAC step under the sequential and the pipelined schedule.
	SeqStepSec     float64 `json:"seq_step_s"`
	OverlapStepSec float64 `json:"overlap_step_s"`
	// Speedup is SeqStepSec / OverlapStepSec.
	Speedup float64 `json:"speedup"`
	// HiddenFrac is the modeled fraction of collective latency hidden
	// behind compute (the overlap/hidden_comm_fraction gauge's analytic
	// twin).
	HiddenFrac float64 `json:"hidden_frac"`
	// Win: the pipelined schedule strictly beats the sequential one.
	Win bool `json:"win"`
}

// OverlapReport is the full judge output.
type OverlapReport struct {
	Workers     int          `json:"workers"`
	FusionBytes int          `json:"fusion_bytes"`
	Rows        []OverlapRow `json:"rows"`
}

// OverlapJudge runs the judge and returns an error, beside the report,
// when its acceptance bar fails. quick shrinks the per-layer gradient
// samples for CI smoke runs.
func OverlapJudge(quick bool) (*OverlapReport, *Table, error) {
	maxElems := 1 << 18
	if quick {
		maxElems = 1 << 15
	}
	eng := cluster.EngineFor(cluster.Platform1(), overlapWorkers)
	dev := gpusim.A100()
	cm := modelzoo.A100Compute()
	rng := xrand.NewSeeded(8)
	comp := compress.NewCOMPSO(8)

	rep := &OverlapReport{Workers: overlapWorkers, FusionBytes: overlapFusionBytes}
	for _, prof := range modelzoo.All() {
		row, err := judgeProfile(prof, eng, dev, cm, rng, comp, maxElems)
		if err != nil {
			return nil, nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, overlapTable(rep), rep.validate()
}

// judgeProfile prices one profile's K-FAC step under both schedules with
// a two-cursor pipeline model: a compute cursor (the rank's clock) and a
// wire cursor (the fabric, collectives serialized in launch order). A
// collective launched at compute time t starts on the wire at
// max(t, wireCursor); a wait advances the compute cursor to
// max(computeCursor, collective end).
func judgeProfile(prof modelzoo.Profile, eng *collective.Engine, dev gpusim.Device, cm modelzoo.ComputeModel, rng *rand.Rand, comp *compress.COMPSO, maxElems int) (OverlapRow, error) {
	nL := len(prof.Layers)

	// Measured COMPSO blob bytes per layer, scaled to full layer size.
	blobBytes := make([]float64, nL)
	for i := range prof.Layers {
		params := prof.Layers[i].Params()
		sample := prof.SyntheticGradient(rng, i, maxElems)
		blob, err := comp.Compress(sample)
		if err != nil {
			return OverlapRow{}, fmt.Errorf("overlap: %s layer %d: %w", prof.Name, i, err)
		}
		blobBytes[i] = float64(len(blob)) * float64(params) / float64(len(sample))
	}

	// Shared compute costs.
	fwdbwd := cm.FwdBwdTime(prof)
	cov := cm.CovTime(prof)
	var decodeAll float64
	for i := range prof.Layers {
		decodeAll += float64(overlapWorkers-1) / float64(overlapWorkers) *
			dev.DecompressTime(gpusim.COMPSOFused(), prof.Layers[i].Params())
	}

	// Round-robin layer ownership, exactly as the trainer assigns it.
	owned := make([][]int, overlapWorkers)
	for i := 0; i < nL; i++ {
		r := i % overlapWorkers
		owned[r] = append(owned[r], i)
	}
	// Per-rank owned compute: eigendecompositions, then per-round
	// precondition+compress. The step is paced by the busiest rank.
	var maxEig, maxPrecond float64
	maxRounds := 0
	for r := range owned {
		var eig, pre float64
		for _, li := range owned[r] {
			eig += cm.EigTime(prof, li)
			pre += cm.PrecondTime(prof, li) +
				dev.Time(gpusim.COMPSOFused(), prof.Layers[li].Params())
		}
		if eig > maxEig {
			maxEig = eig
		}
		if pre > maxPrecond {
			maxPrecond = pre
		}
		if g := len(compso.Groups(len(owned[r]), overlapAggregationM)); g > maxRounds {
			maxRounds = g
		}
	}
	// Per-round costs for the pipelined exchange: the busiest rank's
	// groups pace both the compute and the all-gather payload.
	roundCompute := make([]float64, maxRounds)
	roundBytes := make([]float64, maxRounds)
	for r := range owned {
		groups := compso.Groups(len(owned[r]), overlapAggregationM)
		for gi, g := range groups {
			var c, b float64
			for _, idx := range g {
				li := owned[r][idx]
				c += cm.PrecondTime(prof, li) +
					dev.Time(gpusim.COMPSOFused(), prof.Layers[li].Params())
				b += blobBytes[li]
			}
			if c > roundCompute[gi] {
				roundCompute[gi] = c
			}
			if b > roundBytes[gi] {
				roundBytes[gi] = b
			}
		}
	}
	var frameBytes float64 // one rank's full sequential all-gather payload
	for _, b := range roundBytes {
		frameBytes += b
	}

	// Fused gradient buckets over the raw FP32 gradients (the K-FAC grad
	// all-reduce is uncompressed in both schedules).
	sizes := make([]float64, nL)
	var gradBytes float64
	for i := range prof.Layers {
		sizes[i] = 4 * float64(prof.Layers[i].Params())
		gradBytes += sizes[i]
	}
	buckets := fuseBytes(sizes, overlapFusionBytes)

	covBytes := 4 * prof.CovarianceFloats()
	_, covAR := eng.PredictAllReduce(covBytes)
	_, gradAR := eng.PredictAllReduce(int(gradBytes))
	_, seqAG := eng.PredictAllGather(int(frameBytes))

	// Sequential schedule: every stage serializes.
	seq := fwdbwd + cov + covAR + gradAR + maxEig + maxPrecond + seqAG + decodeAll

	// Pipelined schedule.
	compCursor := fwdbwd + cov
	wire := compCursor
	var commTotal float64
	// Covariance all-reduce, then the gradient buckets, queue on the wire.
	_, s := eng.PredictAllReduce(covBytes)
	wire += s
	commTotal += s
	covEnd := wire
	for _, b := range buckets {
		_, s := eng.PredictAllReduce(int(b))
		wire += s
		commTotal += s
	}
	bucketsEnd := wire
	// Eigendecompositions hide the collectives in flight.
	compCursor += maxEig
	// factor-sync, then grad-install.
	compCursor = math.Max(compCursor, covEnd)
	compCursor = math.Max(compCursor, bucketsEnd)
	// Pipelined precondition exchange: round r's all-gather launches as
	// soon as its compute is done and rides under round r+1's compute.
	for r := 0; r < maxRounds; r++ {
		compCursor += roundCompute[r]
		start := math.Max(compCursor, wire)
		_, s := eng.PredictAllGather(int(roundBytes[r]))
		wire = start + s
		commTotal += s
	}
	compCursor = math.Max(compCursor, wire)
	compCursor += decodeAll
	overlap := compCursor

	computeTotal := fwdbwd + cov + maxEig + maxPrecond + decodeAll
	exposed := overlap - computeTotal
	hidden := 0.0
	if commTotal > 0 {
		hidden = 1 - exposed/commTotal
		hidden = math.Min(1, math.Max(0, hidden))
	}

	row := OverlapRow{
		Model:          prof.Name,
		Layers:         nL,
		Buckets:        len(buckets),
		SeqStepSec:     seq,
		OverlapStepSec: overlap,
		Speedup:        seq / overlap,
		HiddenFrac:     hidden,
	}
	row.Win = row.OverlapStepSec < row.SeqStepSec
	return row, nil
}

// fuseBytes is the judge's mirror of the trainer's greedy bucketer:
// consecutive sizes fused until the cap, oversize entries alone.
func fuseBytes(sizes []float64, limit float64) []float64 {
	var out []float64
	cur := 0.0
	for _, s := range sizes {
		if cur > 0 && cur+s > limit {
			out = append(out, cur)
			cur = 0
		}
		cur += s
	}
	if cur > 0 {
		out = append(out, cur)
	}
	return out
}

// overlapTable renders the judge report.
func overlapTable(rep *OverlapReport) *Table {
	t := &Table{
		Title: fmt.Sprintf("Overlap scheduler judge (%d GPUs, %d MB buckets): pipelined vs sequential K-FAC step",
			rep.Workers, rep.FusionBytes>>20),
		Headers: []string{"Model", "Layers", "Buckets", "Seq s/step", "Overlap s/step", "Speedup", "Hidden", "Win"},
	}
	for _, r := range rep.Rows {
		win := ""
		if r.Win {
			win = "*"
		}
		t.Rows = append(t.Rows, []string{
			r.Model, fmt.Sprint(r.Layers), fmt.Sprint(r.Buckets),
			fmtF(r.SeqStepSec*1e3, 3) + " ms", fmtF(r.OverlapStepSec*1e3, 3) + " ms",
			fmtF(r.Speedup, 2) + "x", fmtF(100*r.HiddenFrac, 1) + "%",
			win,
		})
	}
	return t
}

// validate is the judge's acceptance bar: the pipelined schedule must
// beat the sequential one on at least three of the four modelzoo
// profiles, with finite metrics everywhere.
func (rep *OverlapReport) validate() error {
	wins := 0
	for _, r := range rep.Rows {
		for _, v := range []float64{r.SeqStepSec, r.OverlapStepSec, r.Speedup} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("overlap: %s has a non-finite or non-positive metric", r.Model)
			}
		}
		if math.IsNaN(r.HiddenFrac) || r.HiddenFrac < 0 || r.HiddenFrac > 1 {
			return fmt.Errorf("overlap: %s hidden fraction %g out of [0,1]", r.Model, r.HiddenFrac)
		}
		if r.Win {
			wins++
		}
	}
	if wins < 3 {
		return fmt.Errorf("overlap: pipelined schedule wins on %d profiles, need >= 3", wins)
	}
	return nil
}
