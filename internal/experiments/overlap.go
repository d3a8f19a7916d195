package experiments

import (
	"fmt"
	"math"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/gpusim"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/train"
	"compso/internal/xrand"
)

// The overlap judge: for every modelzoo profile, lower one K-FAC+COMPSO
// training step through the trainer's own stage table (train.Lower) under
// the sequential and the overlap schedule, and replay each on an 8-rank
// des.World with the tuned collective engine. The COMPSO blob sizes are
// measured, not assumed: each layer's synthetic gradient is compressed for
// real and the blob scaled to the full layer. That the trainer's two
// schedules give bit-identical answers while the overlap gauge moves is
// internal/train's test contract (TestOverlapBitIdentityMatrix,
// TestOverlapHidesCommunication), and that a replay is the trainer's
// timeline is TestLoweredStepMatchesLive's.

// overlapJob is the judged step: 8 GPUs, the trainer's 25 MB bucket cap,
// two layers per exchange group, factors and eigendecompositions refreshed.
var overlapJob = train.Config{Workers: 8, Iters: 1, UseKFAC: true, KFAC: kfac.Config{InvFreq: 1}, StatFreq: 1,
	AggregationM: 2, FusionBytes: 25 << 20}

// OverlapRow is one profile's judged comparison.
type OverlapRow struct {
	Model  string `json:"model"`
	Layers int    `json:"layers"`
	// Buckets is how many fused gradient buckets the 25 MB cap yields.
	Buckets int `json:"buckets"`
	// SeqStepSec and OverlapStepSec are the replayed seconds of one K-FAC
	// step under the sequential and the overlap schedule.
	SeqStepSec     float64 `json:"seq_step_s"`
	OverlapStepSec float64 `json:"overlap_step_s"`
	// Speedup is SeqStepSec / OverlapStepSec.
	Speedup float64 `json:"speedup"`
	// HiddenFrac is the fraction of rank 0's collective latency hidden
	// behind compute, as the trainer's overlap/hidden_comm_fraction gauge
	// reads it.
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
	rng := xrand.NewSeeded(8)
	comp, fused := compress.NewCOMPSO(8), gpusim.COMPSOFused()

	rep := &OverlapReport{Workers: overlapJob.Workers, FusionBytes: overlapJob.FusionBytes}
	for _, prof := range modelzoo.All() {
		blobs := make([]int, len(prof.Layers))
		for i, l := range prof.Layers {
			sample := prof.SyntheticGradient(rng, i, maxElems)
			blob, err := comp.Compress(sample)
			if err != nil {
				return nil, nil, fmt.Errorf("overlap: %s layer %d: %w", prof.Name, i, err)
			}
			blobs[i] = int(float64(len(blob)) * float64(l.Params()) / float64(len(sample)))
		}
		m := train.ProfileModel(prof, &fused, func(li int) int { return blobs[li] })
		cfg := overlapJob
		seq := replay(cluster.Platform1(), cfg, m).makespan
		cfg.Overlap = true
		ovl := replay(cluster.Platform1(), cfg, m)
		rep.Rows = append(rep.Rows, OverlapRow{Model: prof.Name, Layers: len(prof.Layers), Buckets: ovl.ops["grad-allreduce"],
			SeqStepSec: seq, OverlapStepSec: ovl.makespan, Speedup: seq / ovl.makespan, HiddenFrac: ovl.hidden, Win: ovl.makespan < seq})
	}
	return rep, overlapTable(rep), rep.validate()
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
