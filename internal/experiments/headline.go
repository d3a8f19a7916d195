package experiments

import (
	"fmt"

	"compso/internal/compso"
	"compso/internal/modelzoo"
)

// Headline reproduces the abstract's summary numbers: "a compression ratio
// of 22.1×, reduces communication time by 14.2×, and improves overall
// performance by 1.9×, all without any drop in model accuracy."

// HeadlineResult holds the abstract-level numbers.
type HeadlineResult struct {
	MeanCR          float64
	MaxCommSpeedup  float64
	MeanCommSpeedup float64
	MaxE2ESpeedup   float64
	MeanE2ESpeedup  float64
}

// Headline computes the summary from the Figure 7 and Figure 9 machinery.
func Headline() (HeadlineResult, *Table, error) {
	fig7Rows, _, err := Figure7()
	if err != nil {
		return HeadlineResult{}, nil, err
	}
	fig9Rows, _, err := Figure9()
	if err != nil {
		return HeadlineResult{}, nil, err
	}
	return headline(fig7Rows, fig9Rows)
}

// headline summarizes computed Figure 7 and Figure 9 rows, next to a
// freshly measured mean COMPSO compression ratio.
func headline(fig7Rows []Fig7Row, fig9Rows []Fig9Row) (HeadlineResult, *Table, error) {
	var res HeadlineResult

	// Mean COMPSO compression ratio across the four models.
	var crSum float64
	for _, p := range modelzoo.All() {
		cr, err := MeasureCR(p, compso.NewCompressor(nil, 0, 7), fig7AggM, 70)
		if err != nil {
			return res, nil, err
		}
		crSum += cr
	}
	res.MeanCR = crSum / float64(len(modelzoo.All()))

	var commSum float64
	var commN int
	for _, r := range fig7Rows {
		if r.Method != "COMPSO" {
			continue
		}
		if r.Speedup > res.MaxCommSpeedup {
			res.MaxCommSpeedup = r.Speedup
		}
		commSum += r.Speedup
		commN++
	}
	res.MeanCommSpeedup = commSum / float64(commN)

	var e2eSum float64
	var e2eN int
	for _, r := range fig9Rows {
		if r.Method != "COMPSO-p" {
			continue
		}
		if r.Speedup > res.MaxE2ESpeedup {
			res.MaxE2ESpeedup = r.Speedup
		}
		e2eSum += r.Speedup
		e2eN++
	}
	res.MeanE2ESpeedup = e2eSum / float64(e2eN)

	table := &Table{
		Title:   "Headline: abstract-level summary vs the paper",
		Headers: []string{"Metric", "Paper", "This repo"},
		Rows: [][]string{
			{"COMPSO compression ratio (mean)", "22.1x", fmtF(res.MeanCR, 1) + "x"},
			{"Communication speedup (max)", "14.2x", fmtF(res.MaxCommSpeedup, 1) + "x"},
			{"Communication speedup (mean)", "~9x", fmtF(res.MeanCommSpeedup, 1) + "x"},
			{"End-to-end speedup (max)", "1.9x", fmtF(res.MaxE2ESpeedup, 2) + "x"},
			{"End-to-end speedup (mean)", "~1.4x", fmtF(res.MeanE2ESpeedup, 2) + "x"},
			{"Accuracy drop", "none", "none (Figures 3/6, Table 1)"},
		},
	}
	return res, table, nil
}

// headlineString renders the result for logs.
func (r HeadlineResult) String() string {
	return fmt.Sprintf("CR %.1fx, comm %.1fx max / %.1fx mean, e2e %.2fx max / %.2fx mean",
		r.MeanCR, r.MaxCommSpeedup, r.MeanCommSpeedup, r.MaxE2ESpeedup, r.MeanE2ESpeedup)
}
