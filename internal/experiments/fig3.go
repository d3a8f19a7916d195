package experiments

import (
	"fmt"
	"math/rand/v2"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/dataset"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/opt"
	"compso/internal/train"
	"compso/internal/xrand"
)

// Figure 3: compression ratio and validation accuracy of SZ-1E-1,
// QSGD-4bit, SZ-4E-3 and QSGD-8bit applied to K-FAC gradients — the
// motivation experiment showing the CR/accuracy trade-off that COMPSO
// resolves. CRs are measured on the full-size model profiles; accuracies
// on the trainable proxies.

// Fig3Row is one compressor's result on one model.
type Fig3Row struct {
	Model, Method string
	CR            float64
	Accuracy      float64 // percent
}

// fig3Methods returns the Figure 3 compressor ladder in plot order.
func fig3Methods() []struct {
	name string
	mk   func(rank int) compress.Compressor
} {
	return []struct {
		name string
		mk   func(rank int) compress.Compressor
	}{
		{"SZ 1E-1", func(rank int) compress.Compressor { return compress.NewSZ(1e-1) }},
		{"QSGD 4bit", func(rank int) compress.Compressor { return compress.NewQSGD(4, int64(rank)+40) }},
		{"SZ 4E-3", func(rank int) compress.Compressor { return compress.NewSZ(4e-3) }},
		{"QSGD 8bit", func(rank int) compress.Compressor { return compress.NewQSGD(8, int64(rank)+80) }},
	}
}

// fig3TrainIters is the proxy convergence budget (kept modest: the point
// is relative accuracy across compressors, visible well before full
// convergence).
const fig3TrainIters = 120

// hardResNetTask is the Figure 3 classification proxy: the same CNN as
// modelzoo.ProxyResNet on a noisier dataset (template noise 2.0), so the
// baseline sits near 90% and the accuracy cost of loose error bounds is
// visible above run-to-run noise — the paper's ResNet-50/ImageNet setting
// has the same property (75.8% baseline).
func hardResNetTask(rng *rand.Rand) *modelzoo.ProxyTask {
	task := modelzoo.ProxyResNet(rng, 17)
	task.Data = dataset.NewImageClassification(10, 1, 10, 10, 2.0, 17)
	return task
}

// proxyAccuracy trains the proxy for the given model with KFAC and the
// compressor, returning final validation accuracy in percent.
func proxyAccuracy(model string, mk func(rank int) compress.Compressor, iters int) (float64, error) {
	builder := func(rng *rand.Rand) *modelzoo.ProxyTask { return hardResNetTask(rng) }
	if model == "BERT-large" {
		builder = func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyBERT(rng, 17) }
	}
	probe := builder(xrand.NewSeeded(0))
	kfacCfg := kfac.DefaultConfig()
	if probe.KFACDamping > 0 {
		kfacCfg.Damping = probe.KFACDamping
	}
	cfg := train.Config{
		BuildTask: builder,
		Workers:   4,
		Platform:  cluster.Platform1(),
		Iters:     iters,
		Seed:      1234,
		Schedule:  &opt.StepLR{BaseLR: probe.KFACLR, Drops: []int{iters * 2 / 3}, Gamma: 0.1},
		UseKFAC:   true,
		KFAC:      kfacCfg,
		StatFreq:  1,
	}
	if mk != nil {
		cfg.NewCompressor = mk
	}
	res, err := train.Run(cfg)
	if err != nil {
		return 0, err
	}
	return 100 * res.FinalAcc, nil
}

// Figure3 regenerates the motivation experiment. iters <= 0 uses the
// default budget.
func Figure3(iters int) ([]Fig3Row, *Table, error) {
	if iters <= 0 {
		iters = fig3TrainIters
	}
	var rows []Fig3Row
	table := &Table{
		Title:   "Figure 3: compression ratio and validation accuracy on KFAC gradients",
		Headers: []string{"Model", "Method", "CR (x)", "Accuracy (%)"},
	}
	ladder := fig3Methods()
	for _, modelName := range []string{"ResNet-50", "BERT-large"} {
		profile, err := modelzoo.ByName(modelName)
		if err != nil {
			return nil, nil, err
		}
		base, err := proxyAccuracy(modelName, nil, iters)
		if err != nil {
			return nil, nil, fmt.Errorf("baseline %s: %w", modelName, err)
		}
		rows = append(rows, Fig3Row{Model: modelName, Method: "KFAC (no comp.)", CR: 1, Accuracy: base})
		comps := make([]compress.Compressor, len(ladder))
		for i, m := range ladder {
			comps[i] = m.mk(0)
		}
		crs, err := measureCRs(profile, comps, 1, 333)
		if err != nil {
			return nil, nil, err
		}
		for i, m := range ladder {
			acc, err := proxyAccuracy(modelName, m.mk, iters)
			if err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", m.name, modelName, err)
			}
			rows = append(rows, Fig3Row{Model: modelName, Method: m.name, CR: crs[i], Accuracy: acc})
		}
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{r.Model, r.Method, fmtF(r.CR, 1), fmtF(r.Accuracy, 1)})
	}
	return rows, table, nil
}
