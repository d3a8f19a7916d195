package experiments

import (
	"fmt"
	"strings"

	"compso/internal/modelzoo"
	"compso/internal/quant"
	"compso/internal/stats"
	"compso/internal/xrand"
)

// Figure 5: the distribution of K-FAC gradient compression error under
// round-to-nearest vs stochastic rounding at error bound 4e-3, for two
// layer types — RN yields a uniform distribution, SR a triangular one,
// which §4.2 identifies as the property that preserves accuracy.

// Fig5Result is one (rounding mode, layer type) histogram.
type Fig5Result struct {
	Mode      quant.Mode
	LayerType string
	Density   []float64
	// Triangularity scores shape: ~0 uniform, ~1 triangular.
	Triangularity float64
}

// fig5Bins matches the visual resolution of the paper's histograms.
const fig5Bins = 21

// Figure5 quantizes two representative ResNet-50 layer gradients (an early
// conv and a late conv — the paper's "layer type 1/2") with each rounding
// mode and histograms the pointwise errors.
func Figure5() ([]Fig5Result, *Table) {
	p := modelzoo.ResNet50()
	layerTypes := map[string]int{
		"layer type 1 (early conv)": 1,
		"layer type 2 (late conv)":  40,
	}
	const eb = 4e-3
	var results []Fig5Result
	table := &Table{
		Title:   "Figure 5: KFAC gradient compression error distribution (eb=4E-3)",
		Headers: []string{"Rounding", "Layer type", "Triangularity", "Shape"},
	}
	for _, mode := range []quant.Mode{quant.RN, quant.SR, quant.P05} {
		for name, layer := range layerTypes {
			rng := xrand.NewSeeded(71)
			raw := p.SyntheticGradient(rng, layer, 400000)
			// The quantizer sees the values the filter keeps (|v| >= eb_f);
			// the sub-bin-width near-zero mass is zeroed by the filter, not
			// rounded, so its error is excluded from the rounding analysis.
			src := raw[:0:0]
			for _, v := range raw {
				if v >= eb || v <= -eb {
					src = append(src, v)
				}
			}
			codes := quant.QuantizeEB(src, eb, mode, rng)
			rec := quant.DequantizeEB(codes, eb, mode)
			h := stats.NewHistogram(-eb, eb, fig5Bins)
			for i := range src {
				h.Add(float64(rec[i]) - float64(src[i]))
			}
			r := Fig5Result{
				Mode: mode, LayerType: name,
				Density:       h.Density(),
				Triangularity: h.Triangularity(),
			}
			results = append(results, r)
			shape := "uniform"
			if r.Triangularity > 0.6 {
				shape = "triangular"
			}
			table.Rows = append(table.Rows, []string{
				mode.String(), name, fmt.Sprintf("%.2f", r.Triangularity), shape,
			})
		}
	}
	return results, table
}

// fig5DensityTable renders each histogram as a row of block characters.
func fig5DensityTable(results []Fig5Result) *Table {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	t := &Table{
		Title:   "Figure 5: error densities over [-eb, eb]",
		Headers: []string{"Rounding", "Layer type", "Density"},
	}
	for _, r := range results {
		var b strings.Builder
		for _, d := range r.Density {
			b.WriteRune(levels[max(0, min(len(levels)-1, int(d*8/0.12)))])
		}
		t.Rows = append(t.Rows, []string{r.Mode.String(), r.LayerType, b.String()})
	}
	return t
}
