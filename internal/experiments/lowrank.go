package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/gpusim"
	"compso/internal/modelzoo"
	"compso/internal/opt"
	"compso/internal/train"
	"compso/internal/xrand"
)

// The low-rank judge: for every modelzoo profile, compare the per-layer
// family plan (PowerSGD rank-k on large 2D layers, COMPSO elsewhere)
// against all-COMPSO on the three axes the family trade-off actually
// turns on — end-to-end wire compression ratio, simulated
// gradient-exchange seconds per step (collective schedule + kernel
// pipeline), and proxy-model convergence under the ring-all-reduce
// path. COMPSO's CR is measured, not assumed: each layer's synthetic
// gradient is compressed for real and the blob size scaled to the full
// layer.

// lowRankWorkers is the simulated GPU count the judge prices
// collectives for.
const lowRankWorkers = 8

// LowRankRow is one profile's judged comparison.
type LowRankRow struct {
	Model  string `json:"model"`
	Layers int    `json:"layers"`
	// LowRankLayers is how many layers the planner sent to PowerSGD.
	LowRankLayers int `json:"lowrank_layers"`
	// CompsoCR and MixCR are end-to-end wire compression ratios (dense
	// FP32 bytes over wire bytes per step).
	CompsoCR float64 `json:"compso_cr"`
	MixCR    float64 `json:"mix_cr"`
	// CompsoStepSec and MixStepSec are simulated gradient-exchange
	// seconds per step: collective time on the tuned engine plus the
	// compression kernel pipeline on the device model.
	CompsoStepSec float64 `json:"compso_step_s"`
	MixStepSec    float64 `json:"mix_step_s"`
	// Win: the planned mix strictly improves CR at equal-or-better
	// simulated step time.
	Win bool `json:"win"`
}

// LowRankConvergence is the proxy-model convergence leg: the same SGD
// proxy trained with all-COMPSO all-gather vs PowerSGD's alternating
// factor ring all-reduce.
type LowRankConvergence struct {
	Model string `json:"model"`
	Iters int    `json:"iters"`
	// CompsoLoss and PowerSGDLoss are the final training losses.
	CompsoLoss   float64 `json:"compso_final_loss"`
	PowerSGDLoss float64 `json:"powersgd_final_loss"`
	// PowerSGDCR is the ring path's measured mean compression ratio.
	PowerSGDCR float64 `json:"powersgd_mean_cr"`
}

// LowRankReport is the full judge output.
type LowRankReport struct {
	Rank        int                 `json:"rank"`
	Workers     int                 `json:"workers"`
	Rows        []LowRankRow        `json:"rows"`
	Convergence *LowRankConvergence `json:"convergence,omitempty"`
}

// LowRankJudge runs the judge and returns an error, beside the report,
// when its acceptance bar fails. quick shrinks the per-layer gradient
// samples and the convergence budget for CI smoke runs; the comparisons
// stay the same.
func LowRankJudge(quick bool) (*LowRankReport, *Table, error) {
	const rank = 4
	maxElems, iters := 1<<18, 24
	if quick {
		maxElems, iters = 1<<15, 8
	}
	eng := cluster.EngineFor(cluster.Platform1(), lowRankWorkers)
	dev := gpusim.A100()
	rng := xrand.NewSeeded(11)
	comp := compress.NewCOMPSO(11)

	rep := &LowRankReport{Rank: rank, Workers: lowRankWorkers}
	for _, prof := range modelzoo.All() {
		plan := compso.PlanFamilies(prof, rank, 0)
		var dense, compsoWire, mixWire float64
		var compsoSec, mixSec float64
		for i, l := range prof.Layers {
			params := l.Params()
			sample := prof.SyntheticGradient(rng, i, maxElems)
			blob, err := comp.Compress(sample)
			if err != nil {
				return nil, nil, fmt.Errorf("lowrank: %s layer %d: %w", prof.Name, i, err)
			}
			blobBytes := float64(len(blob)) * float64(params) / float64(len(sample))
			dense += 4 * float64(params)

			// All-COMPSO path: each rank contributes one blob to the
			// all-gather, then decodes every sender's blob.
			_, agSec := eng.PredictAllGather(int(blobBytes))
			layerSec := agSec +
				dev.Time(gpusim.COMPSOFused(), params) +
				float64(lowRankWorkers)*dev.DecompressTime(gpusim.COMPSOFused(), params)
			compsoWire += blobBytes
			compsoSec += layerSec

			if plan.Choices[i].Family == "powersgd" {
				// Alternating exchange: one rank-k factor per step, on
				// average k·(ADim+GDim)/2 FP32 values, summed by a ring
				// all-reduce and reconstructed once.
				factorBytes := 4 * rank * (l.ADim + l.GDim) / 2
				_, arSec := eng.PredictAllReduce(factorBytes)
				mixWire += float64(factorBytes)
				mixSec += arSec +
					dev.Time(gpusim.PowerSGDGEMM(), params) +
					dev.DecompressTime(gpusim.PowerSGDGEMM(), params)
			} else {
				mixWire += blobBytes
				mixSec += layerSec
			}
		}
		row := LowRankRow{
			Model:         prof.Name,
			Layers:        len(prof.Layers),
			LowRankLayers: plan.LowRankLayers(),
			CompsoCR:      dense / compsoWire,
			MixCR:         dense / mixWire,
			CompsoStepSec: compsoSec,
			MixStepSec:    mixSec,
		}
		row.Win = row.MixCR > row.CompsoCR && row.MixStepSec <= row.CompsoStepSec
		rep.Rows = append(rep.Rows, row)
	}

	conv, err := lowRankConvergence(iters)
	if err != nil {
		return nil, nil, err
	}
	rep.Convergence = conv
	return rep, lowRankTable(rep), rep.validate()
}

// lowRankConvergence trains the ResNet proxy with first-order SGD twice:
// all-COMPSO over the all-gather path, then shared-seed PowerSGD over
// the alternating-factor ring all-reduce.
func lowRankConvergence(iters int) (*LowRankConvergence, error) {
	builder := func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyResNet(rng, 31) }
	probe := builder(xrand.NewSeeded(0))
	base := train.Config{
		BuildTask: builder,
		Workers:   4,
		Platform:  cluster.Platform1(),
		Iters:     iters,
		Seed:      3131,
		Schedule:  &opt.StepLR{BaseLR: probe.BaseLR, Drops: []int{iters * 2 / 3}, Gamma: 0.1},
		StatFreq:  1,
	}

	compsoCfg := base
	compsoCfg.NewCompressor = func(rank int) compress.Compressor {
		return compso.NewCompressor(nil, rank, 31)
	}
	compsoRes, err := train.Run(compsoCfg)
	if err != nil {
		return nil, fmt.Errorf("lowrank: compso convergence: %w", err)
	}

	psCfg := base
	psCfg.NewCompressor = func(rank int) compress.Compressor {
		// One shared seed: the ring path needs bit-identical factor
		// state on every worker.
		return compress.NewPowerSGD(4, 31)
	}
	psRes, err := train.Run(psCfg)
	if err != nil {
		return nil, fmt.Errorf("lowrank: powersgd convergence: %w", err)
	}

	return &LowRankConvergence{
		Model:        "ResNet-50",
		Iters:        iters,
		CompsoLoss:   compsoRes.FinalLoss,
		PowerSGDLoss: psRes.FinalLoss,
		PowerSGDCR:   psRes.MeanCR,
	}, nil
}

// lowRankConvergenceTable renders the ring-path convergence leg.
func lowRankConvergenceTable(c *LowRankConvergence) *Table {
	return &Table{
		Title:   fmt.Sprintf("Low-rank ring-path convergence (%s proxy, %d iters, SGD)", c.Model, c.Iters),
		Headers: []string{"COMPSO loss", "PowerSGD loss", "PowerSGD CR"},
		Rows: [][]string{{
			fmtF(c.CompsoLoss, 4), fmtF(c.PowerSGDLoss, 4), fmtF(c.PowerSGDCR, 1) + "x",
		}},
	}
}

// lowRankTable renders the judge report.
func lowRankTable(rep *LowRankReport) *Table {
	t := &Table{
		Title: fmt.Sprintf("Low-rank family judge (rank %d, %d GPUs): planned mix vs all-COMPSO",
			rep.Rank, rep.Workers),
		Headers: []string{"Model", "Layers", "LowRank", "COMPSO CR", "Mix CR", "COMPSO s/step", "Mix s/step", "Win"},
	}
	for _, r := range rep.Rows {
		win := ""
		if r.Win {
			win = "*"
		}
		t.Rows = append(t.Rows, []string{
			r.Model, fmt.Sprint(r.Layers), fmt.Sprint(r.LowRankLayers),
			fmtF(r.CompsoCR, 1), fmtF(r.MixCR, 1),
			fmtF(r.CompsoStepSec*1e3, 3) + " ms", fmtF(r.MixStepSec*1e3, 3) + " ms",
			win,
		})
	}
	return t
}

// validate is the judge's acceptance bar: the planned family mix must
// beat all-COMPSO's compression ratio on at least two modelzoo profiles
// at equal-or-better simulated step time, and the ring-path convergence
// leg must land in the same loss regime as the COMPSO baseline.
func (rep *LowRankReport) validate() error {
	wins := 0
	for _, r := range rep.Rows {
		for _, v := range []float64{r.CompsoCR, r.MixCR, r.CompsoStepSec, r.MixStepSec} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("lowrank: %s has a non-finite or non-positive metric", r.Model)
			}
		}
		if r.Win {
			wins++
		}
	}
	if wins < 2 {
		return fmt.Errorf("lowrank: planned mix wins on %d profiles, need >= 2", wins)
	}
	c := rep.Convergence
	if c == nil {
		return fmt.Errorf("lowrank: missing convergence leg")
	}
	for _, v := range []float64{c.CompsoLoss, c.PowerSGDLoss} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lowrank: non-finite convergence loss")
		}
	}
	if c.PowerSGDLoss > 2*c.CompsoLoss {
		return fmt.Errorf("lowrank: powersgd final loss %.4f vs compso %.4f (diverged)",
			c.PowerSGDLoss, c.CompsoLoss)
	}
	if c.PowerSGDCR <= 1 {
		return fmt.Errorf("lowrank: ring path mean CR %.2f, want > 1", c.PowerSGDCR)
	}
	return nil
}
