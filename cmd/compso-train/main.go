// Command compso-train trains a proxy model with distributed K-FAC (or
// SGD) on the simulated cluster, optionally compressing the gradient
// exchange, and prints the convergence log and communication breakdown.
//
// Usage:
//
//	compso-train -model resnet -optimizer kfac -compressor compso -gpus 8
//	compso-train -model bert -optimizer sgd -compressor cocktail -iters 200
//
// Models: resnet, maskrcnn, bert, gpt, squad.
// Optimizers: kfac (eigendecomposition preconditioning, Eq. 2), sgd.
// Compressors: none, compso, qsgd8, qsgd4, sz, cocktail, powersgd,
// powersgd-ef. All lossy families are built through the compressor
// registry; powersgd under -optimizer sgd routes the gradient exchange
// through the alternating-factor ring all-reduce (shared seed across
// ranks keeps the factor state replicated), and powersgd-ef composes the
// shared error-feedback wrapper on top.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"

	"compso/internal/ckpt"
	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/obs"
	"compso/internal/opt"
	"compso/internal/profile"
	"compso/internal/train"
)

func main() {
	model := flag.String("model", "resnet", "proxy model: resnet, maskrcnn, bert, gpt, squad")
	optimizer := flag.String("optimizer", "kfac", "optimizer: kfac or sgd")
	compressor := flag.String("compressor", "compso",
		"compressor: none, compso, qsgd8, qsgd4, sz, cocktail, powersgd, powersgd-ef")
	lrRank := flag.Int("rank", 4, "PowerSGD factorization rank")
	gpus := flag.Int("gpus", 4, "simulated GPU count")
	iters := flag.Int("iters", 120, "training iterations")
	seed := flag.Int64("seed", 42, "seed for model init, data and stochastic rounding")
	platform := flag.String("platform", "slingshot10",
		"simulated platform: "+strings.Join(cluster.Platforms(), ", ")+" (1/2 accepted as aliases)")
	aggM := flag.Int("agg", 4, "layer aggregation factor")
	tracePath := flag.String("trace", "", "write a Chrome trace of the simulated timeline to this file")
	ckptDir := flag.String("ckpt", "", "checkpoint directory (enables crash recovery when set)")
	ckptEvery := flag.Int("ckpt-every", 0, "save a checkpoint every N completed steps (0 disables)")
	resume := flag.String("resume", "", `resume from a checkpoint file, or "latest" for the newest in -ckpt`)
	prof := profile.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fail("%v", err)
	}

	builders := map[string]func(rng *rand.Rand) *modelzoo.ProxyTask{
		"resnet":   func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyResNet(rng, *seed) },
		"maskrcnn": func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyMaskRCNN(rng, *seed) },
		"bert":     func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyBERT(rng, *seed) },
		"gpt":      func(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyGPT(rng, *seed) },
		"squad": func(rng *rand.Rand) *modelzoo.ProxyTask {
			task, _ := modelzoo.ProxySQuAD(rng, *seed)
			return task
		},
	}
	builder, ok := builders[*model]
	if !ok {
		fail("unknown model %q", *model)
	}
	if *optimizer != "kfac" && *optimizer != "sgd" {
		fail("unknown optimizer %q", *optimizer)
	}

	sched := opt.Schedule(&opt.StepLR{BaseLR: 0.03, Drops: []int{*iters * 2 / 3}, Gamma: 0.1})
	if *model == "bert" || *model == "gpt" || *model == "squad" {
		sched = &opt.SmoothLR{BaseLR: 0.02, MinLR: 0.002, Warmup: *iters / 20, Total: *iters}
	}

	// Numeric aliases map onto the registry names for compatibility with
	// the old -platform 1|2 flag.
	switch *platform {
	case "1":
		*platform = "slingshot10"
	case "2":
		*platform = "slingshot11"
	}
	plat, err := cluster.PlatformByName(*platform)
	if err != nil {
		fail("%v", err)
	}

	cfg := train.Config{
		BuildTask:    builder,
		Workers:      *gpus,
		Platform:     plat,
		Iters:        *iters,
		Seed:         *seed,
		Schedule:     sched,
		UseKFAC:      *optimizer == "kfac",
		KFAC:         kfac.DefaultConfig(),
		StatFreq:     1,
		AggregationM: *aggM,
	}
	if *tracePath != "" {
		cfg.Obs = obs.NewRecorder()
	}
	// Checkpointing: -ckpt names the directory, -ckpt-every the cadence
	// (setting one defaults the other sensibly), and -resume restarts from a
	// saved file — "latest" resolves to the newest complete checkpoint.
	if *ckptDir != "" && *ckptEvery <= 0 {
		*ckptEvery = max(1, *iters/10)
	}
	cfg.Checkpoint = train.CheckpointConfig{Interval: *ckptEvery, Dir: *ckptDir}
	if *resume == "latest" {
		if *ckptDir == "" {
			fail("-resume latest requires -ckpt")
		}
		path, err := ckpt.LatestPath(*ckptDir)
		if err != nil {
			fail("resume: %v", err)
		}
		if path == "" {
			fail("resume: no checkpoints in %s", *ckptDir)
		}
		*resume = path
	}
	cfg.Checkpoint.Resume = *resume
	// Every lossy family is built through the compressor registry; the
	// per-rank seed decorrelates stochastic rounding across workers, while
	// the low-rank family shares one seed so its replicated factor state
	// stays bit-identical (the ring all-reduce invariant).
	registryComp := func(family string, o compress.Options) func(rank int) compress.Compressor {
		return func(rank int) compress.Compressor {
			o := o
			if family != "powersgd" {
				o.Seed = *seed + int64(rank)
			}
			c, err := compress.ByName(family, o)
			if err != nil {
				fail("%v", err)
			}
			return c
		}
	}
	switch *compressor {
	case "none":
	case "compso":
		cfg.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, *seed) }
		cfg.Controller = compso.DefaultController(sched, *iters)
	case "qsgd8":
		cfg.NewCompressor = registryComp("qsgd", compress.Options{Bits: 8})
	case "qsgd4":
		cfg.NewCompressor = registryComp("qsgd", compress.Options{Bits: 4})
	case "sz":
		cfg.NewCompressor = registryComp("sz", compress.Options{RelEB: 4e-3})
	case "cocktail":
		cfg.NewCompressor = registryComp("cocktail", compress.Options{Keep: 0.2, Bits: 8})
	case "powersgd":
		cfg.NewCompressor = registryComp("powersgd", compress.Options{Seed: *seed, Rank: *lrRank})
	case "powersgd-ef":
		cfg.NewCompressor = registryComp("powersgd",
			compress.Options{Seed: *seed, Rank: *lrRank, ErrorFeedback: true})
	default:
		fail("unknown compressor %q", *compressor)
	}

	res, err := train.Run(cfg)
	if err != nil {
		fail("training failed: %v", err)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail("trace: %v", err)
		}
		if err := cfg.Obs.WriteChromeTrace(f); err != nil {
			fail("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("trace: %v", err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *tracePath)
	}

	fmt.Printf("model=%s optimizer=%s compressor=%s gpus=%d iters=%d\n\n",
		*model, *optimizer, *compressor, *gpus, *iters)
	fmt.Println("iter    loss        accuracy")
	for i, it := range res.Iterations {
		acc := "-"
		if len(res.Accuracies) > i && res.Accuracies[i] >= 0 {
			acc = fmt.Sprintf("%.2f%%", 100*res.Accuracies[i])
		}
		fmt.Printf("%-7d %-11.4f %s\n", it, res.Losses[i], acc)
	}
	if res.MeanCR > 0 {
		fmt.Printf("\nmean compression ratio: %.1fx\n", res.MeanCR)
	}
	fmt.Println("\nsimulated communication seconds per worker (whole run):")
	keys := make([]string, 0, len(res.CommSeconds))
	for k := range res.CommSeconds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-18s %.4fs\n", k, res.CommSeconds[k])
	}
	profile.Exit(0)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	profile.Exit(1)
}
