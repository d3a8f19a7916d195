package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/opt"
	"compso/internal/train"
	"compso/internal/xrand"
)

// Figure 6 (and its auxiliary table 6b): convergence of the six methods —
// SGD+CocktailSGD, KFAC without compression, KFAC+cuSZ, KFAC+QSGD,
// KFAC+CocktailSGD, KFAC+COMPSO — on the ResNet-50, Mask R-CNN and
// GPT-neo-125M proxies. SGD runs 1.5x the iterations of KFAC (the paper's
// 60-vs-40-epoch / 1800-vs-1000 / 5000-vs-3000 ratios), so the KFAC rows
// demonstrate second-order iteration savings.

// Method describes one optimizer/compressor combination.
type Method struct {
	Name    string
	UseKFAC bool
	// NewCompressor is nil for uncompressed runs.
	NewCompressor func(rank int) compress.Compressor
	// Adaptive enables COMPSO's iteration-wise controller.
	Adaptive bool
	// IterScale multiplies the base iteration budget (SGD runs longer).
	IterScale float64
}

// Methods returns the Figure 6 method set in the paper's legend order.
func Methods() []Method {
	return []Method{
		{Name: "SGD+CocktailSGD", UseKFAC: false, IterScale: 1.5,
			NewCompressor: func(rank int) compress.Compressor { return compress.NewCocktailSGD(0.2, 8, int64(rank)+500) }},
		{Name: "KFAC (No Comp.)", UseKFAC: true, IterScale: 1},
		{Name: "KFAC+cuSZ", UseKFAC: true, IterScale: 1,
			NewCompressor: func(rank int) compress.Compressor { return compress.NewSZ(4e-3) }},
		{Name: "KFAC+QSGD", UseKFAC: true, IterScale: 1,
			NewCompressor: func(rank int) compress.Compressor { return compress.NewQSGD(8, int64(rank)+600) }},
		{Name: "KFAC+CocktailSGD", UseKFAC: true, IterScale: 1,
			NewCompressor: func(rank int) compress.Compressor { return compress.NewCocktailSGD(0.2, 8, int64(rank)+700) }},
		{Name: "KFAC+COMPSO", UseKFAC: true, IterScale: 1, Adaptive: true,
			NewCompressor: func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 800) }},
	}
}

// Fig6Run is one (model, method) convergence record.
type Fig6Run struct {
	Model, Method string
	Iterations    []int
	Losses        []float64
	FinalLoss     float64
	FinalAcc      float64 // -1 for regression tasks
	MeanCR        float64
}

// fig6Task maps a paper model to its proxy builder.
func fig6Task(model string) (func(rng *rand.Rand) *modelzoo.ProxyTask, error) {
	switch model {
	case "ResNet-50":
		return func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyResNet(rng, 21) }, nil
	case "Mask R-CNN":
		return func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyMaskRCNN(rng, 22) }, nil
	case "BERT-large":
		return func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyBERT(rng, 23) }, nil
	case "GPT-neo-125M":
		return func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyGPT(rng, 24) }, nil
	default:
		return nil, fmt.Errorf("experiments: no proxy for %q", model)
	}
}

// scheduleFor builds the paper's schedule family for the model with the
// proxy task's learning rate for the chosen optimizer family.
func scheduleFor(model string, iters int, baseLR float64) opt.Schedule {
	p, err := modelzoo.ByName(model)
	if err == nil && p.Schedule == "SmoothLR" {
		return &opt.SmoothLR{BaseLR: baseLR, MinLR: baseLR / 10, Warmup: iters / 20, Total: iters}
	}
	return &opt.StepLR{BaseLR: baseLR, Drops: []int{iters * 2 / 3}, Gamma: 0.1}
}

// RunMethod trains one (model, method) pair for the given base iteration
// budget on 4 simulated GPUs.
func RunMethod(model string, m Method, baseIters int) (*Fig6Run, error) {
	builder, err := fig6Task(model)
	if err != nil {
		return nil, err
	}
	iters := int(float64(baseIters) * m.IterScale)
	// Probe the task for its per-optimizer hyper-parameters.
	probe := builder(xrand.NewSeeded(0))
	lr := probe.BaseLR
	kfacCfg := kfac.DefaultConfig()
	if m.UseKFAC {
		lr = probe.KFACLR
		if probe.KFACDamping > 0 {
			kfacCfg.Damping = probe.KFACDamping
		}
	}
	sched := scheduleFor(model, iters, lr)
	cfg := train.Config{
		BuildTask:     builder,
		Workers:       4,
		Platform:      cluster.Platform1(),
		Iters:         iters,
		Seed:          4242,
		Schedule:      sched,
		UseKFAC:       m.UseKFAC,
		KFAC:          kfacCfg,
		StatFreq:      1,
		NewCompressor: m.NewCompressor,
		AggregationM:  4,
	}
	if m.Adaptive {
		cfg.Controller = compso.DefaultController(sched, iters)
	}
	res, err := train.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", model, m.Name, err)
	}
	return &Fig6Run{
		Model: model, Method: m.Name,
		Iterations: res.Iterations, Losses: res.Losses,
		FinalLoss: res.FinalLoss, FinalAcc: res.FinalAcc, MeanCR: res.MeanCR,
	}, nil
}

// fig6BaseIters is the KFAC iteration budget per model.
const fig6BaseIters = 120

// Figure6 regenerates the convergence comparison. baseIters <= 0 uses the
// default budget.
func Figure6(baseIters int) ([]Fig6Run, *Table, error) {
	if baseIters <= 0 {
		baseIters = fig6BaseIters
	}
	models := []string{"ResNet-50", "Mask R-CNN", "GPT-neo-125M"}
	var runs []Fig6Run
	table := &Table{
		Title:   "Figure 6b: final validation metric per method (acc% for ResNet-50, loss otherwise)",
		Headers: []string{"Model", "Method", "Final metric", "Mean CR", "Iterations"},
	}
	for _, model := range models {
		for _, m := range Methods() {
			run, err := RunMethod(model, m, baseIters)
			if err != nil {
				return nil, nil, err
			}
			runs = append(runs, *run)
			metric := fmtF(run.FinalLoss, 3)
			if model == "ResNet-50" {
				metric = fmtF(100*run.FinalAcc, 2) + "%"
			}
			cr := "-"
			if run.MeanCR > 0 {
				cr = fmtF(run.MeanCR, 1)
			}
			table.Rows = append(table.Rows, []string{
				model, m.Name, metric, cr,
				fmt.Sprint(run.Iterations[len(run.Iterations)-1]),
			})
		}
	}
	return runs, table, nil
}

// fig6LossTable renders Figure 6a: every run's logged training losses.
func fig6LossTable(runs []Fig6Run) *Table {
	t := &Table{Title: "Figure 6a: training loss curves", Headers: []string{"Model", "Method", "Losses"}}
	for _, r := range runs {
		losses := make([]string, len(r.Losses))
		for i, l := range r.Losses {
			losses[i] = fmtF(l, 3)
		}
		t.Rows = append(t.Rows, []string{r.Model, r.Method, strings.Join(losses, " ")})
	}
	return t
}
