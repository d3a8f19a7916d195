package collective

import "fmt"

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

// ringScratch is the ring kernel's working set in floats per member: a
// clock, its link's occupancy, α and β, and two entries of the doubled
// chunk-size table.
const ringScratch = 6

// ringMembers is the member count of the rings alg's schedules run, which
// is what a sim for it sizes the kernel's scratch by: the flat ring has
// every rank in it, the hierarchical schedules ring over the node leaders.
func ringMembers(alg string, t *Topology) int {
	switch alg {
	case AlgRing:
		return t.P
	case AlgHierarchical:
		return t.Nodes()
	}
	return 0
}

// ring schedules the n−1 steps of a ring over n members spaced stride
// ranks apart (member i is rank i·stride): at step k, member i forwards
// chunk (i+off−k) mod n to member i+1 over link i. It charges exactly the
// transfers n−1 steps of n sends would, with the same arithmetic in the
// same order, but not through send — a leader ring at fleet scale is
// millions of transfers. Three facts let it run dense: link i owns its two
// ports (egress/ingress of its endpoints, or the NICs of their nodes — no
// other link of the ring touches them), so one busy-until time stands for
// both; member i's clock is written by links i−1 and i only; and a step
// reads clocks as they stood at its entry. So the ring's state is gathered
// once, every step is one pass over the links, and clocks and ports are
// written back at the end.
func ring(s *sim, n, stride, off int, chunks []int) {
	if n < 2 {
		return
	}
	p := len(s.clock)
	if len(chunks) < n || uint((n-1)*stride) >= uint(p) {
		panic(fmt.Sprintf("collective: bad transfer: ring of %d members %d apart with %d chunks for P=%d", n, stride, len(chunks), p))
	}
	chunks = chunks[:n]
	for c, b := range chunks {
		if b < 0 {
			panic(fmt.Sprintf("collective: bad transfer: ring chunk %d of %d bytes for P=%d", c, b, p))
		}
	}

	// clk[i] is member i's clock, with clk[n] a copy of clk[0] for the
	// closing link; busy[i], alpha[i] and beta[i] describe link i; size is
	// the chunk table twice over, so a step's chunks are one window of it.
	sc := s.scratch[:ringScratch*n]
	clk, busy, alpha, beta, size := sc[:n+1], sc[n+1:2*n+1], sc[2*n+1:3*n+1], sc[3*n+1:4*n+1], sc[4*n+1:]
	t := s.topo
	for i, src := 0, 0; i < n; i, src = i+1, src+stride {
		dst := wrap(i+1, n) * stride
		clk[i] = s.clock[src]
		if sn, dn := s.node[src], s.node[dst]; sn == dn {
			alpha[i], beta[i], busy[i] = t.IntraAlpha, t.IntraBeta, later(s.egress[src], s.ingress[dst])
		} else {
			alpha[i], beta[i], busy[i] = t.InterAlpha, t.InterBeta, later(s.nicOut[sn], s.nicIn[dn])
		}
		size[i] = float64(chunks[i])
		if i < n-1 {
			size[n+i] = size[i]
		}
	}
	clk[n] = clk[0]

	var tr *ringTrace
	if s.pert != nil || !s.dropEvents {
		tr = &ringTrace{s: s, stride: stride, chunks: chunks}
	}
	for k := 0; k < n-1; k++ {
		c := wrap(off+n-k, n) // off is 0 or 1, so the sum is in [0, 2n)
		if tr != nil {
			tr.step, tr.first = s.step+k, c
		}
		ringStep(clk, busy, alpha, beta, size[c:c+n], tr)
	}

	for i, src := 0, 0; i < n; i, src = i+1, src+stride {
		dst := wrap(i+1, n) * stride
		s.clock[src] = clk[i]
		if sn, dn := s.node[src], s.node[dst]; sn == dn {
			s.egress[src], s.ingress[dst] = busy[i], busy[i]
		} else {
			s.nicOut[sn], s.nicIn[dn] = busy[i], busy[i]
		}
	}
	s.step += n - 1
}

// ringStep runs one step of a ring: link i starts when its endpoints,
// as they stood at the step's entry, and its ports are free, and moves
// both endpoints' clocks to its end. Link i writes clk[i] once it has read
// it, so every read in the pass is a step-entry clock: clk[i+1] is not yet
// written, and the closing link reads clk[n], the copy of clk[0].
func ringStep(clk, busy, alpha, beta, size []float64, tr *ringTrace) {
	n := len(busy)
	// Every slice gets busy's length, so the loop checks no bound.
	cur, nxt := clk[:n], clk[1:][:n]
	alpha, beta, size = alpha[:n], beta[:n], size[:n]
	a, prev := cur[0], cur[0] // prev is the end on link i−1
	for i := range busy {
		b := nxt[i]
		start := later(later(a, b), busy[i])
		dur := linkTime(alpha[i], beta[i], size[i])
		if tr != nil {
			dur = tr.transfer(i, start, dur, alpha[i], beta[i])
		}
		end := start + dur
		busy[i] = end
		cur[i] = later(later(a, prev), end)
		a, prev = b, end
	}
	cur[0] = later(cur[0], prev)
	nxt[n-1] = cur[0]
}

// ringTrace is what a perturber or a retained trace needs to know of a
// ring step besides its times: the ring's stride and chunks (one a
// member), the step's number in the collective and the chunk its link 0
// moves.
type ringTrace struct {
	s           *sim
	stride      int
	chunks      []int
	step, first int
}

// transfer returns the duration the perturber charges link i (dur when
// there is no perturber) and records the event.
func (r *ringTrace) transfer(i int, start, dur, alpha, beta float64) float64 {
	s, n := r.s, len(r.chunks)
	src, dst, bytes := i*r.stride, wrap(i+1, n)*r.stride, r.chunks[wrap(r.first+i, n)]
	sn, dn := int(s.node[src]), int(s.node[dst])
	link := LinkInter
	if sn == dn {
		link = LinkIntra
	}
	if s.pert != nil {
		dur = perturbedTime(s.pert, src, dst, sn, dn, link, bytes, start, alpha, beta)
	}
	if !s.dropEvents {
		s.events = append(s.events, Event{
			Op: s.op, Algorithm: s.alg, Step: r.step,
			Src: src, Dst: dst, Link: link, Bytes: bytes,
			Start: start, End: start + dur,
		})
	}
	return dur
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
