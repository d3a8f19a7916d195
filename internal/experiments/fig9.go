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
	name string
	// mk builds the compressor whose ratio the method is priced at. Nil
	// reuses the ratio of the method before it.
	mk       func() compress.Compressor
	pipeline gpusim.Pipeline
	dynamicM bool // COMPSO-p: choose m via the performance model
}

// fig9Methods lists the methods in plot order. COMPSO-p prices COMPSO-f's
// ratio (one compressor, one seed), so the two differ in m alone.
func fig9Methods() []figMethod {
	return []figMethod{
		{"cuSZ", func() compress.Compressor { return compress.NewSZ(4e-3) }, gpusim.SZCUDA(), false},
		{"QSGD", func() compress.Compressor { return compress.NewQSGD(8, 91) }, gpusim.QSGDCUDA(), false},
		{"CocktailSGD", func() compress.Compressor { return compress.NewCocktailSGD(0.2, 8, 92) }, gpusim.CocktailTorch(), false},
		{"COMPSO-f", func() compress.Compressor { return compso.NewCompressor(nil, 0, 93) }, gpusim.COMPSOFused(), false},
		{"COMPSO-p", nil, gpusim.COMPSOFused(), true},
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
		lt, err := perfmodel.BuildLookupTable(cfg, []int{8, 16, 32, 64})
		if err != nil {
			return nil, nil, err
		}
		for _, p := range modelzoo.All() {
			modelRows, err := fig9Model(pi, cfg, lt, p)
			if err != nil {
				return nil, nil, err
			}
			fixed := map[int]float64{}
			for _, row := range modelRows {
				cells := []string{"", ""}
				switch row.Method {
				case "COMPSO-f":
					fixed[row.GPUs] = row.Speedup
				case "COMPSO-p":
					cells = []string{fmt.Sprint(row.BestM), fmtF(100*row.Lost, 2) + "%"}
					if row.BestM == row.AggM {
						agree++
					}
					switch f := fixed[row.GPUs]; {
					case row.Speedup > f*(1+1e-4):
						win++
					case row.Speedup < f*(1-1e-4):
						loss++
					default:
						tie++
					}
				}
				table.Rows = append(table.Rows, append([]string{
					row.Platform, row.Model, row.Method, fmt.Sprint(row.GPUs), fmt.Sprint(row.AggM), fmtF(row.Speedup, 2),
				}, cells...))
			}
			rows = append(rows, modelRows...)
		}
	}
	table.Title = fmt.Sprintf("Figure 9: end-to-end speedup over uncompressed distributed KFAC "+
		"(COMPSO-p vs COMPSO-f: %d wins, %d ties, %d losses; model m is the replay-best in %d/%d)", win, tie, loss, agree, win+tie+loss)
	return rows, table, nil
}

// fig9Model is Figure 9's rows for one model on platform pi (cfg, whose
// performance-model lookup table is lt), in method order: COMPSO-f's row
// at a GPU count comes before COMPSO-p's.
func fig9Model(pi int, cfg cluster.Config, lt *perfmodel.LookupTable, p modelzoo.Profile) ([]Fig9Row, error) {
	platform := fmt.Sprintf("Platform %d", pi+1)
	base := map[int]Breakdown{}
	for _, gpus := range []int{8, 16, 32, 64} {
		base[gpus] = breakdown(p, cfg, gpus)
	}
	methods := fig9Methods()
	var comps []compress.Compressor
	for _, method := range methods {
		if method.mk != nil {
			comps = append(comps, method.mk())
		}
	}
	crs, err := measureCRs(p, comps, fig7AggM, 1100+int64(pi))
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	ci := -1 // crs[ci] is the ratio of the last method with an mk
	for _, method := range methods {
		if method.mk != nil {
			ci++
		}
		cr := crs[ci]
		for _, gpus := range []int{8, 16, 32, 64} {
			b := base[gpus]
			row := Fig9Row{Platform: platform, Model: p.Name, Method: method.name, GPUs: gpus, AggM: fig7AggM}
			var cands []int
			if method.dynamicM {
				if row.AggM, err = chooseAggregation(lt, p, gpus, cr, method.pipeline, b.Allgather/b.Total); err != nil {
					return nil, err
				}
				cands = perfmodel.AggregationCandidates
			}
			step := func(m int) float64 {
				sm := figureModel(p, &method.pipeline, ratioPayload(p, cr))
				return replay(cfg, figureStep(gpus, m), sm).makespan / figureSteps
			}
			comp := step(row.AggM)
			best := comp
			row.BestM = row.AggM
			for _, m := range cands {
				if t := step(m); t < best {
					best, row.BestM = t, m
				}
			}
			row.Speedup, row.Lost = b.Total/comp, comp/best-1
			rows = append(rows, row)
		}
	}
	return rows, nil
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
