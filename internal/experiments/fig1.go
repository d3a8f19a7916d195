package experiments

import (
	"fmt"

	"compso/internal/cluster"
	"compso/internal/modelzoo"
)

// Figure 1: time breakdown of distributed K-FAC training per iteration —
// KFAC Allgather, KFAC Allreduce, KFAC Computations, Forward+Backward, and
// Others — across the four models and {16, 32, 64} compute nodes (four
// GPUs per node).

// Breakdown holds one configuration's per-iteration seconds by category.
type Breakdown struct {
	Model string
	Nodes int
	GPUs  int
	// Seconds per iteration by category, and the total.
	Allgather, Allreduce, KFACCompute, FwdBwd, Others, Total float64
}

// Percent returns the categories as percentages of the total, in the
// paper's stacking order (Allgather, Allreduce, KFACCompute, FwdBwd,
// Others).
func (b Breakdown) Percent() [5]float64 {
	if b.Total == 0 {
		return [5]float64{}
	}
	return [5]float64{
		100 * b.Allgather / b.Total,
		100 * b.Allreduce / b.Total,
		100 * b.KFACCompute / b.Total,
		100 * b.FwdBwd / b.Total,
		100 * b.Others / b.Total,
	}
}

// breakdown replays figureSteps uncompressed steps of prof on gpus ranks
// of the platform; each category is its per-step seconds averaged over
// ranks, Total the per-step makespan. Ranks owning less K-FAC work wait at
// the all-gather, so placement imbalance reads as all-gather.
func breakdown(prof modelzoo.Profile, plat cluster.Config, gpus int) Breakdown {
	r := replay(plat, figureStep(gpus, 1), figureModel(prof, nil, ratioPayload(prof, 1)))
	c := func(cats ...string) (s float64) {
		for _, k := range cats {
			s += r.mean[k] / figureSteps
		}
		return s
	}
	return Breakdown{
		Model: prof.Name, Nodes: gpus / plat.GPUsPerNode, GPUs: gpus,
		Allgather: c("kfac-allgather"), Allreduce: c("kfac-allreduce"),
		KFACCompute: c("kfac-cov", "kfac-eigendecomp", "kfac-precondition"),
		FwdBwd:      c("fwd-bwd"), Others: c("others"), Total: r.makespan / figureSteps,
	}
}

// Figure1 regenerates the paper's Figure 1 on Platform 1.
func Figure1() ([]Breakdown, *Table) {
	cfg := cluster.Platform1()
	var rows []Breakdown
	table := &Table{
		Title:   "Figure 1: time breakdown of distributed KFAC training (% of iteration)",
		Headers: []string{"Model", "Nodes", "GPUs", "Allgather%", "Allreduce%", "KFAC-comp%", "Fwd+Bwd%", "Others%"},
	}
	for _, p := range modelzoo.All() {
		for _, nodes := range []int{16, 32, 64} {
			b := breakdown(p, cfg, nodes*cfg.GPUsPerNode)
			rows = append(rows, b)
			pct := b.Percent()
			table.Rows = append(table.Rows, []string{
				b.Model, fmt.Sprint(nodes), fmt.Sprint(b.GPUs),
				fmtF(pct[0], 1), fmtF(pct[1], 1), fmtF(pct[2], 1), fmtF(pct[3], 1), fmtF(pct[4], 1),
			})
		}
	}
	return rows, table
}
