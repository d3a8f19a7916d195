package collective

import (
	"fmt"

	"compso/internal/pool"
)

// sim executes a schedule over the topology's links, advancing per-rank
// clocks and per-link occupancy. A schedule is a sequence of streamed
// steps: the builder calls send once per transfer, in order, and endStep
// to close the step; a ring's steps go through the dense kernel in ring
// instead, which charges the same transfers. One sim instance covers one
// collective; occupancy does not persist across collectives because the
// SPMD rendezvous serializes them.
type sim struct {
	topo *Topology
	// node is the engine's rank→node table.
	node []int32
	// clock is each rank's simulated time.
	clock []float64
	// egress/ingress are per-rank NVLink port busy-until times.
	egress, ingress []float64
	// nicOut/nicIn are per-node NIC busy-until times (full duplex).
	nicOut, nicIn []float64

	// snap[r] is rank r's clock at the entry of step stamp[r]−1, saved the
	// first time that step advanced it; a rank the current step has not
	// advanced still holds its entry time in clock. Stamping on first
	// write costs a step the ranks it touches, not all P.
	snap  []float64
	stamp []int
	// scratch is the ring kernel's working set, 6 floats a ring member. It
	// starts on snap's storage: between steps no stamp equals a future
	// step+1, so nothing reads snap until a later send writes it again.
	scratch []float64
	// f64 is the pooled block egress, ingress, nicOut, nicIn, snap and
	// scratch are cut from.
	f64 []float64

	op, alg string
	step    int
	events  []Event
	// dropEvents skips event retention (mega-scale runs where the trace
	// would dominate memory); timing is unaffected.
	dropEvents bool
	// pert optionally perturbs per-transfer link timing (fault injection);
	// nil charges the clean topology cost. Prediction dry runs leave it
	// nil so the cost model keeps describing the healthy fabric.
	pert LinkPerturber
}

// newSim starts a collective at the per-rank arrival times clock holds,
// charging the per-collective launch cost to every rank in place: clock
// becomes the sim's clock. All link-occupancy state comes from the buffer
// pool; release returns it. The clock is the caller's: an executed
// schedule's escapes as Outcome.Ends, a dry run's goes back to the pool.
func (e *Engine) newSim(op, alg string, clock []float64) *sim {
	p, n := e.topo.P, e.topo.Nodes()
	clock = clock[:p]
	for i := range clock {
		clock[i] += e.topo.Launch
	}
	ports := 2*p + 2*n
	f64 := pool.F64(ports + max(p, ringScratch*ringMembers(alg, e.topo)))
	clear(f64[:ports]) // snap is guarded by stamp, scratch is written before it is read
	stamp := pool.Ints(p)
	clear(stamp)
	return &sim{
		topo: e.topo, node: e.node, clock: clock,
		egress: f64[:p], ingress: f64[p : 2*p],
		nicOut: f64[2*p : 2*p+n], nicIn: f64[2*p+n : ports],
		snap: f64[ports : ports+p], scratch: f64[ports:len(f64):len(f64)],
		stamp: stamp, f64: f64,
		op: op, alg: alg,
	}
}

// release returns the pooled scratch. The clock slice stays valid.
func (s *sim) release() {
	pool.PutF64(s.f64)
	pool.PutInts(s.stamp)
	s.f64, s.egress, s.ingress, s.snap, s.scratch, s.nicOut, s.nicIn, s.stamp = nil, nil, nil, nil, nil, nil, nil, nil
}

// send schedules one transfer of the current step. Its start time derives
// from the endpoints' clocks at step entry, so transfers within a step are
// concurrent except where they share a link — shared ports or NICs
// serialize in send order, which is how contention emerges from the
// schedule. Zero-byte transfers still pay the link α (they are real
// messages); a rank sending to itself is free.
func (s *sim) send(src, dst, bytes int) {
	if uint(src) >= uint(len(s.clock)) || uint(dst) >= uint(len(s.clock)) || bytes < 0 {
		panic(fmt.Sprintf("collective: bad transfer %d→%d of %d bytes for P=%d", src, dst, bytes, len(s.clock)))
	}
	if src == dst {
		return
	}
	mark := s.step + 1
	ready, dstReady := s.clock[src], s.clock[dst]
	if s.stamp[src] == mark {
		ready = s.snap[src]
	}
	if s.stamp[dst] == mark {
		dstReady = s.snap[dst]
	}
	if dstReady > ready {
		ready = dstReady
	}
	t := s.topo
	sn, dn := int(s.node[src]), int(s.node[dst])
	var link LinkClass
	var alpha, beta float64
	var out, in *float64
	if sn == dn {
		link, alpha, beta = LinkIntra, t.IntraAlpha, t.IntraBeta
		out, in = &s.egress[src], &s.ingress[dst]
	} else {
		link, alpha, beta = LinkInter, t.InterAlpha, t.InterBeta
		out, in = &s.nicOut[sn], &s.nicIn[dn]
	}
	start := later(later(ready, *out), *in)
	dur := linkTime(alpha, beta, float64(bytes))
	if s.pert != nil {
		dur = perturbedTime(s.pert, src, dst, sn, dn, link, bytes, start, alpha, beta)
	}
	end := start + dur
	*out, *in = end, end
	s.advance(src, mark, end)
	s.advance(dst, mark, end)
	if s.dropEvents {
		return
	}
	s.events = append(s.events, Event{
		Op: s.op, Algorithm: s.alg, Step: s.step,
		Src: src, Dst: dst, Link: link, Bytes: bytes,
		Start: start, End: end,
	})
}

// advance moves rank r's clock forward to end, saving its step-entry time
// the first time the step numbered mark−1 does so.
func (s *sim) advance(r, mark int, end float64) {
	if end > s.clock[r] {
		if s.stamp[r] != mark {
			s.stamp[r], s.snap[r] = mark, s.clock[r]
		}
		s.clock[r] = end
	}
}

// endStep closes the current step: later sends see the clocks as they now
// stand.
func (s *sim) endStep() { s.step++ }

// perturbedTime returns one transfer's duration over a link a fault
// perturber degrades, in place of the clean α + β·bytes.
func perturbedTime(pert LinkPerturber, src, dst, srcNode, dstNode int, link LinkClass, bytes int, start, alpha, beta float64) float64 {
	as, bs, j := pert.PerturbLink(src, dst, srcNode, dstNode, link, bytes, start)
	return (float64(alpha*as) + float64(beta*float64(bytes)*bs)) * (1 + j)
}

// linkTime is the clean cost of one transfer: the link's latency plus its
// inverse bandwidth times the message size, a rounded product, then a
// rounded sum, never a fused multiply-add. send and the ring step's
// portable loop charge through it; ringStepAVX makes the same two
// roundings with VMULPD and VADDPD.
func linkTime(alpha, beta, bytes float64) float64 { return alpha + float64(beta*bytes) }

// later returns the later of two simulated times.
func later(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
