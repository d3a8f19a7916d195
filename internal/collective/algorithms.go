package collective

// Algorithm names. "analytic" reproduces the legacy closed-form α–β charge
// and is only used when forced by policy (it is not an autotuner
// candidate).
const (
	AlgRing              = "ring"
	AlgRecursiveDoubling = "recursive-doubling"
	AlgBinomial          = "binomial"
	AlgHierarchical      = "hierarchical"
	AlgAnalytic          = "analytic"
)

// Collective op names used in traces, stats keys and the autotuner.
const (
	OpAllGather     = "allgather"
	OpAllReduce     = "allreduce"
	OpReduceScatter = "reducescatter"
	OpBroadcast     = "broadcast"
	OpSendRecv      = "sendrecv"
)

// splitBytes splits n bytes into p near-even chunks (first n%p chunks get
// the extra byte) — the wire chunking of ring reduce collectives.
func splitBytes(n, p int) []int {
	base, rem := n/p, n%p
	out := make([]int, p)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// wrap folds x in [0, 2m) into [0, m).
func wrap(x, m int) int {
	if x >= m {
		x -= m
	}
	return x
}

// ring schedules the n−1 steps of a ring over n members spaced stride
// ranks apart (member i is rank i·stride): at step k, member i forwards
// chunk (i+off−k) mod n to member i+1. The walk adds and wraps — a leader
// ring at fleet scale is millions of transfers, none of which divides.
func ring(s *sim, n, stride, off int, chunks []int) {
	for step := 0; step < n-1; step++ {
		c := wrap(off+n-step, n) // off is 0 or 1, so the sum is in [0, 2n)
		src := 0
		for i := 1; i < n; i++ {
			s.send(src, src+stride, chunks[c])
			src += stride
			c = wrap(c+1, n)
		}
		s.send(src, 0, chunks[c])
		s.endStep()
	}
}

// ringChunks schedules the classic P−1 step ring: at step s, rank r
// forwards chunk (r−s) mod P to rank r+1. It is both the ring all-gather
// (chunks are the variable per-rank contributions) and the ring
// reduce-scatter (partial sums of the per-rank shards; after P−1 steps rank
// r owns completed chunk (r+1) mod P).
func ringChunks(s *sim, sp spec) { ring(s, s.topo.P, 1, 0, sp.sizes) }

// ringAllReduce schedules reduce-scatter followed by all-gather of the
// reduced chunks: 2(P−1) steps moving 2(P−1)/P · n bytes per rank. In the
// all-gather phase rank r starts owning chunk (r+1) mod P and forwards
// chunk (r+1−s) mod P at step s.
func ringAllReduce(s *sim, sp spec) {
	p := s.topo.P
	chunks := splitBytes(sp.total(), p)
	ring(s, p, 1, 0, chunks)
	ring(s, p, 1, 1, chunks)
}

// recursiveDoublingAllGather schedules the log-step exchange. Non-power-of-
// two world sizes use the standard pre/post fixup: the p−q highest ranks
// fold their block into a partner below the largest power of two q, the q
// ranks double, and the partners send the full result back.
func recursiveDoublingAllGather(s *sim, sp spec) {
	p, sizes := s.topo.P, sp.sizes
	q := 1
	for q*2 <= p {
		q *= 2
	}
	held := append([]int(nil), sizes...)
	if q < p {
		for e := q; e < p; e++ {
			s.send(e, e-q, sizes[e])
			held[e-q] += sizes[e]
		}
		s.endStep()
	}
	for d := 1; d < q; d <<= 1 {
		for r := 0; r < q; r++ {
			s.send(r, r^d, held[r])
		}
		s.endStep()
		for r := 0; r < q; r++ {
			if r&d == 0 {
				held[r] += held[r|d]
				held[r|d] = held[r]
			}
		}
	}
	if q < p {
		total := sp.total()
		for e := q; e < p; e++ {
			s.send(e-q, e, total-sizes[e])
		}
		s.endStep()
	}
}

// groupBcast schedules a binomial-tree broadcast of bytes inside every
// group of g consecutive ranks (the last may be partial). The trees run
// concurrently: each round is one step holding every group's transfers in
// group order. Group rootGroup's tree is rooted at its member rootIdx, every
// other at its first rank.
func groupBcast(s *sim, g, rootGroup, rootIdx, bytes int) {
	p := s.topo.P
	for d := 1; d < g && d < p; d <<= 1 {
		for lo := 0; lo < p; lo += g {
			m, root := min(g, p-lo), 0
			if lo == rootGroup*g {
				root = rootIdx
			}
			for j := 0; j < d && j+d < m; j++ {
				s.send(lo+wrap(root+j, m), lo+wrap(root+j+d, m), bytes)
			}
		}
		s.endStep()
	}
}

// nodeReduce schedules a binomial-tree reduction of bytes toward every
// node's leader, all nodes concurrently (one step per round, node order).
func nodeReduce(s *sim, bytes int) {
	p, g := s.topo.P, s.topo.GPUsPerNode
	for d := 1; d < g && d < p; d <<= 1 {
		for lo := 0; lo < p; lo += g {
			for j := d; j < min(g, p-lo); j += 2 * d {
				s.send(lo+j, lo+j-d, bytes)
			}
		}
		s.endStep()
	}
}

// binomialBroadcast schedules a flat binomial tree over all ranks.
func binomialBroadcast(s *sim, sp spec) { groupBcast(s, s.topo.P, 0, sp.root, sp.total()) }

// hierarchicalAllGather schedules the paper's §4 two-level exchange:
//  1. intra-node gather — every member sends its payload to the node
//     leader over NVLink (one step; each leader's ingress port serializes
//     its members, so the stage costs the true gather lower bound);
//  2. inter-node ring all-gather among node leaders over the NICs, with
//     per-node aggregated sizes;
//  3. intra-node binomial broadcast of the full result from each leader.
func hierarchicalAllGather(s *sim, sp spec) {
	g, n := s.topo.GPUsPerNode, s.topo.Nodes()
	nodeBytes := make([]int, n)
	for r, sz := range sp.sizes {
		lead := int(s.node[r]) * g
		nodeBytes[s.node[r]] += sz
		if r != lead {
			s.send(r, lead, sz)
		}
	}
	s.endStep()
	ring(s, n, g, 0, nodeBytes)
	groupBcast(s, g, 0, 0, sp.total())
}

// hierarchicalAllReduce schedules the two-level reduction:
//  1. intra-node binomial-tree reduce of the full vector to each leader;
//  2. inter-node ring all-reduce among leaders (chunked by node count);
//  3. intra-node binomial broadcast of the reduced vector.
func hierarchicalAllReduce(s *sim, sp spec) {
	g, n, nBytes := s.topo.GPUsPerNode, s.topo.Nodes(), sp.total()
	nodeReduce(s, nBytes)
	chunks := splitBytes(nBytes, n)
	ring(s, n, g, 0, chunks)
	ring(s, n, g, 1, chunks)
	groupBcast(s, g, 0, 0, nBytes)
}

// hierarchicalReduceScatter schedules the two-level variant: intra-node
// tree reduce to leaders, ring reduce-scatter among leaders over per-node
// byte groups, then leaders return each member's shard directly.
func hierarchicalReduceScatter(s *sim, sp spec) {
	g, n := s.topo.GPUsPerNode, s.topo.Nodes()
	nodeReduce(s, sp.total())
	nodeBytes := make([]int, n)
	for r, c := range sp.sizes {
		nodeBytes[s.node[r]] += c
	}
	ring(s, n, g, 0, nodeBytes)
	for r, c := range sp.sizes {
		if lead := int(s.node[r]) * g; r != lead {
			s.send(lead, r, c)
		}
	}
	s.endStep()
}

// hierarchicalBroadcast schedules root → other node leaders (binomial over
// NIC links) followed by concurrent intra-node binomial trees. The root
// acts as its own node's leader.
func hierarchicalBroadcast(s *sim, sp spec) {
	g, n, root, bytes := s.topo.GPUsPerNode, s.topo.Nodes(), sp.root, sp.total()
	rootNode := int(s.node[root])
	// head is member j of the inter-node tree: the root, then the leaders
	// of the other nodes in node order.
	head := func(j int) int {
		if j == 0 {
			return root
		}
		if j <= rootNode {
			j--
		}
		return j * g
	}
	for d := 1; d < n; d <<= 1 {
		for j := 0; j < d && j+d < n; j++ {
			s.send(head(j), head(j+d), bytes)
		}
		s.endStep()
	}
	groupBcast(s, g, rootNode, root-rootNode*g, bytes)
}
