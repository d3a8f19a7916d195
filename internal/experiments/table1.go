package experiments

import (
	"fmt"
	"math/rand/v2"

	"compso/internal/cluster"
	"compso/internal/compso"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/opt"
	"compso/internal/train"
	"compso/internal/xrand"
)

// Table 1: SQuAD v1.1 fine-tuning quality (F1 / exact match) of BERT-large
// under the six methods, on the span-extraction proxy task.

// Table1Row is one method's SQuAD-proxy result.
type Table1Row struct {
	Method string
	F1, EM float64
	MeanCR float64
}

// table1Iters is the fine-tuning budget.
const table1Iters = 250

// Table1 regenerates the SQuAD comparison. iters <= 0 uses the default.
func Table1(iters int) ([]Table1Row, *Table, error) {
	if iters <= 0 {
		iters = table1Iters
	}
	var rows []Table1Row
	table := &Table{
		Title:   "Table 1: SQuAD-proxy fine-tuning quality of BERT-large",
		Headers: []string{"Approach", "F1 Score", "Exact Match", "Mean CR"},
	}
	for _, m := range Methods() {
		row, err := table1Row(m, iters)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		cr := "-"
		if row.MeanCR > 0 {
			cr = fmtF(row.MeanCR, 1)
		}
		table.Rows = append(table.Rows, []string{m.Name, fmtF(row.F1, 2), fmtF(row.EM, 2), cr})
	}
	return rows, table, nil
}

// table1Row fine-tunes the span-extraction proxy with one method for its
// share of the base budget iters and scores the trained model on a
// held-out set with the SQuAD metrics.
func table1Row(m Method, iters int) (Table1Row, error) {
	mIters := int(float64(iters) * m.IterScale)
	sched := &opt.SmoothLR{BaseLR: 0.02, MinLR: 0.002, Warmup: mIters / 20, Total: mIters}
	cfg := train.Config{
		BuildTask: func(rng *rand.Rand) *modelzoo.ProxyTask {
			task, _ := modelzoo.ProxySQuAD(rng, 31)
			return task
		},
		Workers:       4,
		Platform:      cluster.Platform1(),
		Iters:         mIters,
		Seed:          5151,
		Schedule:      sched,
		UseKFAC:       m.UseKFAC,
		KFAC:          kfac.DefaultConfig(),
		StatFreq:      1,
		NewCompressor: m.NewCompressor,
		AggregationM:  4,
	}
	if m.Adaptive {
		cfg.Controller = compso.DefaultController(sched, mIters)
	}
	res, err := train.Run(cfg)
	if err != nil {
		return Table1Row{}, fmt.Errorf("table1 %s: %w", m.Name, err)
	}

	// The same seed reproduces the task the workers train, and its span
	// scorer.
	task, spanData := modelzoo.ProxySQuAD(xrand.NewSeeded(cfg.Seed), 31)
	ex, ey := task.Data.Sample(xrand.NewSeeded(777), 512)
	out := res.Model.Forward(ex, false)
	pred := make([]int, ex.Rows)
	gold := make([]int, ex.Rows)
	for i := 0; i < ex.Rows; i++ {
		row := out.Data[i*out.Cols : (i+1)*out.Cols]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		pred[i] = best
		gold[i] = int(ey.Data[i])
	}
	f1, em := spanData.SpanF1EM(pred, gold)
	return Table1Row{Method: m.Name, F1: f1, EM: em, MeanCR: res.MeanCR}, nil
}
