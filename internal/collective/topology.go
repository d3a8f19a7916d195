// Package collective implements step-level, topology-aware collective
// algorithms executed over simulated point-to-point links.
//
// The paper's §4 communication optimizations (hierarchical reduction:
// intra-node NVLink stage, then inter-node Slingshot stage) cannot be
// expressed by a single closed-form α–β charge per collective: they need a
// real schedule in which every step moves bytes over concrete links, link
// occupancy serializes competing transfers, and the collective's cost
// emerges from the critical path. This package provides
//
//   - Topology: a two-tier platform model (per-GPU NVLink ports, per-node
//     NICs) with α/β parameters per link class;
//   - step schedules for ring all-gather, ring all-reduce (reduce-scatter +
//     all-gather), ring reduce-scatter, recursive-doubling all-gather,
//     binomial-tree broadcast, and the paper-critical two-level hierarchical
//     all-gather / all-reduce / broadcast;
//   - an Engine that dispatches each collective to an algorithm (forced by
//     policy or chosen by an Autotuner seeded from cost-model dry runs and
//     refined by measured simulated times) and records a per-step event
//     trace;
//   - an "analytic" fallback algorithm that reproduces the legacy
//     closed-form α–β charges for backward compatibility.
//
// Data results are canonical: reductions sum contributions in rank order
// regardless of the schedule, so every rank — and every algorithm — decodes
// bit-identical bytes (the SPMD determinism contract the rest of the repo
// relies on). The schedule determines only simulated time.
package collective

import "fmt"

// LinkClass identifies the tier of the link a transfer crosses.
type LinkClass uint8

const (
	// LinkIntra is an intra-node (NVLink-class) link.
	LinkIntra LinkClass = iota
	// LinkInter is an inter-node (NIC/switch-class) link.
	LinkInter
)

// String returns the link class label used in traces and tables.
func (l LinkClass) String() string {
	if l == LinkIntra {
		return "intra"
	}
	return "inter"
}

// Event is one scheduled transfer in a collective's step trace.
type Event struct {
	// Op is the collective operation ("allgather", "allreduce", ...).
	Op string
	// Algorithm is the schedule that produced the transfer.
	Algorithm string
	// Step is the 0-based schedule step within the collective.
	Step int
	// Src and Dst are the endpoint ranks. The analytic fallback records a
	// single summary event with Src = Dst = -1.
	Src, Dst int
	// Link is the link class the transfer crossed.
	Link LinkClass
	// Bytes is the message size on the wire.
	Bytes int
	// Start and End are the transfer's simulated start/finish times.
	Start, End float64
}

// Topology describes the two-tier platform the schedules run on: P ranks
// packed GPUsPerNode to a node (the last node may be partial), each rank
// owning full-duplex NVLink ingress/egress ports, each node owning a
// full-duplex NIC shared by its ranks. Contention is not a parameter: when
// several transfers need the same port or NIC, the simulator serializes
// them on the link's occupancy.
type Topology struct {
	// P is the world size.
	P int
	// GPUsPerNode is the number of ranks per node.
	GPUsPerNode int
	// IntraAlpha/IntraBeta are the per-message latency (s) and inverse
	// bandwidth (s/byte) of intra-node links.
	IntraAlpha, IntraBeta float64
	// InterAlpha/InterBeta are the same for the per-node NIC. Beta is the
	// full NIC rate: when a node's ranks inject concurrently, the NIC
	// occupancy serializes them, so the per-rank share emerges from the
	// schedule instead of being baked into the rate.
	InterAlpha, InterBeta float64
	// Launch is the fixed software cost of issuing one collective, paid
	// once per collective by every rank.
	Launch float64
}

// Validate reports topology errors.
func (t *Topology) Validate() error {
	if t.P <= 0 || t.GPUsPerNode <= 0 {
		return fmt.Errorf("collective: invalid topology %+v", *t)
	}
	if t.IntraBeta < 0 || t.InterBeta < 0 || t.IntraAlpha < 0 || t.InterAlpha < 0 || t.Launch < 0 {
		return fmt.Errorf("collective: negative link parameter in %+v", *t)
	}
	return nil
}

// Nodes returns the node count (ceil division; the last node may hold
// fewer than GPUsPerNode ranks).
func (t *Topology) Nodes() int {
	return (t.P + t.GPUsPerNode - 1) / t.GPUsPerNode
}

// Node returns the node housing rank.
func (t *Topology) Node(rank int) int { return rank / t.GPUsPerNode }

// SameNode reports whether two ranks share a node (and hence NVLink).
func (t *Topology) SameNode(a, b int) bool { return t.Node(a) == t.Node(b) }

// Leader returns the designated leader rank of a node (its first rank).
func (t *Topology) Leader(node int) int { return node * t.GPUsPerNode }

// P2PTime returns the α–β cost of one point-to-point message between two
// ranks, ignoring occupancy (used by the Worker.SendRecv primitive, where
// the pair is the only user of its links).
func (t *Topology) P2PTime(src, dst, bytes int) float64 {
	if src == dst {
		return 0
	}
	if t.SameNode(src, dst) {
		return t.IntraAlpha + t.IntraBeta*float64(bytes)
	}
	return t.InterAlpha + t.InterBeta*float64(bytes)
}
