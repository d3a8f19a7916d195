package experiments

import (
	"fmt"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/modelzoo"
)

// Figure 7: communication speedup of cuSZ, QSGD, CocktailSGD and COMPSO
// compressed K-FAC gradient all-gathers across the four models, GPU counts
// {8, 16, 32, 64} and both platforms. As in the paper, the communication
// time excludes (de)compression overhead: the speedup isolates the benefit
// of moving fewer bytes, with layer aggregation (m=4) applied. Each worker
// owns a round-robin share of the layers, and every round gathers one
// aggregation group per worker (gatherSeconds).

// Fig7Row is one (platform, model, method, GPU count) speedup.
type Fig7Row struct {
	Platform, Model, Method string
	GPUs                    int
	CR                      float64
	Speedup                 float64
}

// fig7Methods returns the Figure 7 method set in plot order.
func fig7Methods() []figMethod {
	return []figMethod{
		{name: "cuSZ", mk: func() compress.Compressor { return compress.NewSZ(4e-3) }},
		{name: "QSGD", mk: func() compress.Compressor { return compress.NewQSGD(8, 61) }},
		{name: "CocktailSGD", mk: func() compress.Compressor { return compress.NewCocktailSGD(0.2, 8, 62) }},
		{name: "COMPSO", mk: func() compress.Compressor { return compso.NewCompressor(nil, 0, 63) }},
	}
}

// fig7AggM is the layer-aggregation factor for the communication study.
const fig7AggM = 4

// Figure7 regenerates the communication-speedup comparison.
func Figure7() ([]Fig7Row, *Table, error) {
	var rows []Fig7Row
	table := &Table{
		Title:   "Figure 7: communication speedup of compressed KFAC gradients (agg m=4)",
		Headers: []string{"Platform", "Model", "Method", "GPUs", "CR (x)", "Speedup (x)"},
	}
	for pi, cfg := range []cluster.Config{cluster.Platform1(), cluster.Platform2()} {
		platform := fmt.Sprintf("Platform %d", pi+1)
		for _, p := range modelzoo.All() {
			// Measure each compressor's CR once per model.
			for _, method := range fig7Methods() {
				cr, err := MeasureCR(p, method.mk(), fig7AggM, 900+int64(pi))
				if err != nil {
					return nil, nil, err
				}
				for _, gpus := range []int{8, 16, 32, 64} {
					base := gatherSeconds(cfg, p, gpus, fig7AggM, 1)
					comp := gatherSeconds(cfg, p, gpus, fig7AggM, cr)
					speedup := base / comp
					rows = append(rows, Fig7Row{
						Platform: platform, Model: p.Name, Method: method.name,
						GPUs: gpus, CR: cr, Speedup: speedup,
					})
					table.Rows = append(table.Rows, []string{
						platform, p.Name, method.name, fmt.Sprint(gpus),
						fmtF(cr, 1), fmtF(speedup, 2),
					})
				}
			}
		}
	}
	return rows, table, nil
}
