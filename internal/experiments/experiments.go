// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment returns structured results plus a
// text rendering with the same rows/series the paper reports; the
// cmd/compso-bench tool and the top-level benchmarks drive them.
//
// Absolute numbers come from the simulated platform and synthetic
// workloads (see DESIGN.md §1); the assertions in this package's tests
// pin the paper's qualitative shape — who wins, by roughly what factor,
// and where the crossovers fall.
package experiments

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"compso/internal/compress"
	"compso/internal/modelzoo"
	"compso/internal/xrand"
)

// Table is a generic experiment result rendering.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// sampleCap bounds the per-layer synthetic gradient sample used for
// compression-ratio measurement; per-layer ratios extrapolate to the full
// layer size.
const sampleCap = 1 << 18 // 256k float32 per layer

// MeasureCR estimates a compressor's overall compression ratio on a model
// profile's K-FAC gradients: each aggregation group of m layers is sampled,
// compressed for real, and the measured group ratio is applied to the
// group's true size.
func MeasureCR(p modelzoo.Profile, comp compress.Compressor, m int, seed int64) (float64, error) {
	crs, err := measureCRs(p, []compress.Compressor{comp}, m, seed)
	if err != nil {
		return 0, err
	}
	return crs[0], nil
}

// measureCRs is MeasureCR for each of comps on the same samples: every
// group is sampled once and compressed by each compressor in turn, so each
// ratio equals its own MeasureCR call's, bit for bit.
func measureCRs(p modelzoo.Profile, comps []compress.Compressor, m int, seed int64) ([]float64, error) {
	if m < 1 {
		m = 1
	}
	rng := xrand.NewSeeded(seed)
	var origBytes float64
	compBytes := make([]float64, len(comps))
	for g := 0; g < len(p.Layers); g += m {
		end := min(g+m, len(p.Layers))
		var sample []float32
		groupParams := 0
		for li := g; li < end; li++ {
			sample = append(sample, p.SyntheticGradient(rng, li, sampleCap/(end-g))...)
			groupParams += p.Layers[li].Params()
		}
		groupBytes := float64(4 * groupParams)
		origBytes += groupBytes
		for i, comp := range comps {
			blob, err := comp.Compress(sample)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s group %d: %w", comp.Name(), p.Name, g, err)
			}
			ratio := compress.Ratio(len(sample), blob)
			if ratio <= 0 {
				return nil, fmt.Errorf("experiments: zero ratio on %s group %d", p.Name, g)
			}
			compBytes[i] += groupBytes / ratio
		}
	}
	crs := make([]float64, len(comps))
	for i := range comps {
		crs[i] = origBytes / compBytes[i]
	}
	return crs, nil
}

// fmtF formats a float at the given precision for table cells.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
