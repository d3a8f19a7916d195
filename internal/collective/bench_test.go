package collective

import (
	"testing"

	"compso/internal/cpu"
)

// benchSizes returns the two collectives the schedule benchmarks time: a
// 100 MB all-reduce and an all-gather whose per-rank sizes run from 0 to a
// few hundred kilobytes, so no two ring steps move the same chunks.
func benchSizes(p int) map[string][]int {
	ragged := make([]int, p)
	for r := range ragged {
		if r%5 != 3 {
			ragged[r] = (r * 7919) % 441623
		}
	}
	return map[string][]int{OpAllReduce: {100 << 20}, OpAllGather: ragged}
}

// benchExec times Exec with retention off — the mode des runs — and
// reports the host cost per simulated transfer, once per ring-step path:
// path=avx where the host has the kernel, then path=go, the portable loop.
func benchExec(b *testing.B, p int, alg string, transfers map[string]int) {
	topo := testTopology(p)
	e, err := NewEngine(topo, alg)
	if err != nil {
		b.Fatal(err)
	}
	e.SetEventRetention(false)
	starts, bySize := goldenStarts(p), benchSizes(p)
	defer func(saved bool) { useAVX = saved }(useAVX)
	for _, avx := range []bool{true, false} {
		if avx && !cpu.HasAVX {
			continue
		}
		useAVX = avx
		path := "path=go"
		if avx {
			path = "path=avx"
		}
		b.Run(path, func(b *testing.B) {
			for _, op := range []string{OpAllReduce, OpAllGather} {
				sizes := bySize[op]
				b.Run(op, func(b *testing.B) {
					e.Exec(op, sizes, 0, starts) // dry-runs the prediction seed
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.Exec(op, sizes, 0, starts)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(transfers[op]), "ns/transfer")
				})
			}
		})
	}
}

// BenchmarkExecHierarchical is des_p4096's collective layer: 1024 node
// leaders ring between a tree or gather stage and a broadcast over the
// P − n members.
func BenchmarkExecHierarchical(b *testing.B) {
	const p = 4096
	n := testTopology(p).Nodes()
	benchExec(b, p, AlgHierarchical, map[string]int{
		OpAllReduce: 2*n*(n-1) + 2*(p-n),
		OpAllGather: n*(n-1) + 2*(p-n),
	})
}

// BenchmarkExecRing is the flat ring, whose links alternate between three
// NVLink hops and one NIC hop.
func BenchmarkExecRing(b *testing.B) {
	const p = 1024
	benchExec(b, p, AlgRing, map[string]int{
		OpAllReduce: 2 * p * (p - 1),
		OpAllGather: p * (p - 1),
	})
}
