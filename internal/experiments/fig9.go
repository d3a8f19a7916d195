package experiments

import (
	"fmt"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/gpusim"
	"compso/internal/modelzoo"
	"compso/internal/perfmodel"
)

// Figure 9: end-to-end training speedup over uncompressed distributed
// K-FAC for cuSZ, QSGD, CocktailSGD, COMPSO-f (fixed aggregation m=4) and
// COMPSO-p (aggregation chosen by the performance model), across models,
// GPU counts and both platforms. Every step time is a replay of the
// trainer's lowering (replay.go), (de)compression charged on each method's
// gpusim kernels.

// Fig9Row is one configuration's speedup.
type Fig9Row struct {
	Platform, Model, Method string
	GPUs                    int
	Speedup                 float64
	AggM                    int
	// BestM is COMPSO-p's replay-best m among
	// perfmodel.AggregationCandidates, and Lost the share of step time the
	// performance model's m costs over it.
	BestM int
	Lost  float64
}

// figMethod couples a compressor with its GPU pipeline cost model and
// aggregation policy.
type figMethod struct {
	name     string
	mk       func() compress.Compressor
	pipeline gpusim.Pipeline
	dynamicM bool // COMPSO-p: choose m via the performance model
}

// fig9Methods lists the methods in plot order. COMPSO-f and COMPSO-p share
// a compressor seed, so they differ in m alone.
func fig9Methods() []figMethod {
	return []figMethod{
		{"cuSZ", func() compress.Compressor { return compress.NewSZ(4e-3) }, gpusim.SZCUDA(), false},
		{"QSGD", func() compress.Compressor { return compress.NewQSGD(8, 91) }, gpusim.QSGDCUDA(), false},
		{"CocktailSGD", func() compress.Compressor { return compress.NewCocktailSGD(0.2, 8, 92) }, gpusim.CocktailTorch(), false},
		{"COMPSO-f", func() compress.Compressor { return compso.NewCompressor(nil, 0, 93) }, gpusim.COMPSOFused(), false},
		{"COMPSO-p", func() compress.Compressor { return compso.NewCompressor(nil, 0, 93) }, gpusim.COMPSOFused(), true},
	}
}

// Figure9 regenerates the end-to-end comparison: each method's replayed
// step (figureModel, its measured ratio, its own kernels) against the
// uncompressed one. COMPSO-p also replays every candidate m, judging the
// performance model's choice against the replay-best, and is counted
// against COMPSO-f beyond a 1e-4 relative band.
func Figure9() ([]Fig9Row, *Table, error) {
	var rows []Fig9Row
	table := &Table{Headers: []string{"Platform", "Model", "Method", "GPUs", "m", "Speedup (x)", "Best m", "Lost"}}
	var win, tie, loss, agree int
	for pi, cfg := range []cluster.Config{cluster.Platform1(), cluster.Platform2()} {
		platform := fmt.Sprintf("Platform %d", pi+1)
		lt, err := perfmodel.BuildLookupTable(cfg, []int{8, 16, 32, 64})
		if err != nil {
			return nil, nil, err
		}
		for _, p := range modelzoo.All() {
			base, fixed := map[int]Breakdown{}, map[int]float64{}
			for _, gpus := range []int{8, 16, 32, 64} {
				base[gpus] = breakdown(p, cfg, gpus)
			}
			for _, method := range fig9Methods() {
				cr, err := MeasureCR(p, method.mk(), fig7AggM, 1100+int64(pi))
				if err != nil {
					return nil, nil, err
				}
				for _, gpus := range []int{8, 16, 32, 64} {
					b := base[gpus]
					row := Fig9Row{Platform: platform, Model: p.Name, Method: method.name, GPUs: gpus, AggM: fig7AggM}
					var cands []int
					if method.dynamicM {
						if row.AggM, err = chooseAggregation(lt, p, gpus, cr, method.pipeline, b.Allgather/b.Total); err != nil {
							return nil, nil, err
						}
						cands = perfmodel.AggregationCandidates
					}
					step := func(m int) float64 {
						sm := figureModel(p, &method.pipeline, ratioPayload(p, cr))
						return replay(cfg, figureStep(gpus, m), sm).makespan / figureSteps
					}
					comp := step(row.AggM)
					best, cells := comp, []string{"", ""}
					row.BestM = row.AggM
					for _, m := range cands {
						if t := step(m); t < best {
							best, row.BestM = t, m
						}
					}
					row.Speedup, row.Lost = b.Total/comp, comp/best-1
					if method.name == "COMPSO-f" {
						fixed[gpus] = row.Speedup
					}
					if method.dynamicM {
						cells = []string{fmt.Sprint(row.BestM), fmtF(100*row.Lost, 2) + "%"}
						if row.BestM == row.AggM {
							agree++
						}
						switch f := fixed[gpus]; {
						case row.Speedup > f*(1+1e-4):
							win++
						case row.Speedup < f*(1-1e-4):
							loss++
						default:
							tie++
						}
					}
					rows = append(rows, row)
					table.Rows = append(table.Rows, append([]string{
						platform, p.Name, method.name, fmt.Sprint(gpus), fmt.Sprint(row.AggM), fmtF(row.Speedup, 2),
					}, cells...))
				}
			}
		}
	}
	table.Title = fmt.Sprintf("Figure 9: end-to-end speedup over uncompressed distributed KFAC "+
		"(COMPSO-p vs COMPSO-f: %d wins, %d ties, %d losses; model m is the replay-best in %d/%d)", win, tie, loss, agree, win+tie+loss)
	return rows, table, nil
}

// chooseAggregation runs the performance model's m selection for COMPSO-p,
// commRatio being the all-gather's share of the uncompressed step.
func chooseAggregation(lt *perfmodel.LookupTable, p modelzoo.Profile, gpus int, cr float64, pipeline gpusim.Pipeline, commRatio float64) (int, error) {
	// Rank 0's owned layer sizes.
	var ownedBytes []int
	for li := 0; li < len(p.Layers); li += gpus {
		ownedBytes = append(ownedBytes, 4*p.Layers[li].Params())
	}
	nOwned := p.TotalParams() / gpus
	compBps := 4 * float64(nOwned) / gpusim.A100().Time(pipeline, nOwned)
	prof := perfmodel.OnlineProfile{CompressionRatio: cr, CompressBps: compBps, DecompressBps: compBps, CommRatio: commRatio}
	m, _, err := lt.BestAggregation(ownedBytes, gpus, prof)
	return m, err
}
