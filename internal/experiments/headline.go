package experiments

import (
	"fmt"
	"slices"

	"compso/internal/compso"
	"compso/internal/modelzoo"
	"compso/internal/stats"
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

	var comm, e2e []float64
	for _, r := range fig7Rows {
		if r.Method == "COMPSO" {
			comm = append(comm, r.Speedup)
		}
	}
	for _, r := range fig9Rows {
		if r.Method == "COMPSO-p" {
			e2e = append(e2e, r.Speedup)
		}
	}
	res.MaxCommSpeedup, res.MeanCommSpeedup = slices.Max(comm), stats.Mean(comm)
	res.MaxE2ESpeedup, res.MeanE2ESpeedup = slices.Max(e2e), stats.Mean(e2e)

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
