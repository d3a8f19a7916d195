package experiments

import (
	"sort"

	"compso/internal/cluster"
	"compso/internal/collective"
)

// Communication breakdown: per-algorithm simulated time of the step-level
// collective schedules on both platforms, across message sizes and GPU
// counts. This is the experiment backing the paper's premise that the
// collective schedule matters — on the two-tier Slingshot topology the
// hierarchical schedules (NVLink stage → one NIC crossing per node →
// NVLink broadcast) beat flat rings as soon as the group spans nodes,
// which is why the engine's autotuner exists at all.

// CommRow is one (platform, op, size, world, algorithm) measurement.
type CommRow struct {
	Platform  string  `json:"platform"`
	Op        string  `json:"op"`
	Bytes     int     `json:"bytes"`
	Workers   int     `json:"workers"`
	Algorithm string  `json:"algorithm"`
	Seconds   float64 `json:"seconds"`
	Best      bool    `json:"best"` // fastest algorithm in its group
}

var (
	commSizes   = []int{1 << 16, 1 << 20, 1 << 23} // 64 KB, 1 MB, 8 MB
	commWorkers = []int{4, 16, 64}                 // 1, 4 and 16 nodes
	commOps     = []string{collective.OpAllReduce, collective.OpAllGather}
)

// CommBreakdown times every step-level algorithm on both platforms and
// returns the rows plus a rendered table.
func CommBreakdown() ([]CommRow, *Table, error) {
	var rows []CommRow
	for _, cfg := range []cluster.Config{cluster.Platform1(), cluster.Platform2()} {
		for _, p := range commWorkers {
			eng := cluster.EngineFor(cfg, p)
			for _, op := range commOps {
				table := eng.CostTable(op, commSizes)
				algs := make([]string, 0, len(table))
				for alg := range table {
					algs = append(algs, alg)
				}
				sort.Strings(algs)
				for si, n := range commSizes {
					group := make([]CommRow, 0, len(algs))
					bestIdx, bestSec := -1, 0.0
					for _, alg := range algs {
						sec := table[alg][si]
						r := CommRow{
							Platform: cfg.Name, Op: op, Bytes: n, Workers: p,
							Algorithm: alg, Seconds: sec,
						}
						if bestIdx < 0 || sec < bestSec {
							bestIdx, bestSec = len(group), sec
						}
						group = append(group, r)
					}
					if bestIdx >= 0 {
						group[bestIdx].Best = true
					}
					rows = append(rows, group...)
				}
			}
		}
	}
	return rows, commTable(rows), nil
}

func commTable(rows []CommRow) *Table {
	t := &Table{
		Title:   "Collective schedule breakdown (simulated seconds per call)",
		Headers: []string{"Platform", "Op", "Bytes", "GPUs", "Algorithm", "Seconds", "Best"},
	}
	for _, r := range rows {
		best := ""
		if r.Best {
			best = "*"
		}
		t.Rows = append(t.Rows, []string{
			r.Platform, r.Op, fmtBytes(r.Bytes), fmtF(float64(r.Workers), 0),
			r.Algorithm, fmtF(r.Seconds*1e3, 3) + " ms", best,
		})
	}
	return t
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmtF(float64(n>>20), 0) + " MB"
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmtF(float64(n>>10), 0) + " KB"
	default:
		return fmtF(float64(n), 0) + " B"
	}
}
