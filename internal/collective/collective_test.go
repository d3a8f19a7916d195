package collective

import (
	"fmt"
	"math"
	"testing"
)

// testTopology mirrors Platform1's shape: 4 GPUs/node, NVLink-class
// intra-node links, a much slower shared NIC per node.
func testTopology(p int) *Topology {
	return &Topology{
		P: p, GPUsPerNode: 4,
		IntraAlpha: 2e-6, IntraBeta: 1 / 300e9,
		InterAlpha: 5e-6, InterBeta: 1 / 12.5e9,
		Launch: 5e-5,
	}
}

func forcedEngine(t *testing.T, p int, policy string) *Engine {
	t.Helper()
	e, err := NewEngine(testTopology(p), policy)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var worldSizes = []int{1, 2, 3, 4, 8, 16}

// refGather is the sequential reference all-gather.
func refGather(payloads [][]byte) [][]byte { return payloads }

// refReduce is the sequential reference reduce (rank-order sum).
func refReduce(vecs [][]float64) []float64 {
	sum := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		for i, x := range v {
			sum[i] += x
		}
	}
	return sum
}

func mkPayloads(p int) [][]byte {
	out := make([][]byte, p)
	for r := range out {
		// Variable sizes, including an empty payload at rank 1.
		n := (r * 37) % 101
		if r == 1 {
			n = 0
		}
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(r*31 + i)
		}
		out[r] = buf
	}
	return out
}

func mkVecs(p, n int) [][]float64 {
	out := make([][]float64, p)
	for r := range out {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r + 1 + i%7)
		}
		out[r] = v
	}
	return out
}

func starts(p int) []float64 {
	s := make([]float64, p)
	for i := range s {
		s[i] = float64(i%3) * 1e-4 // mild stragglers
	}
	return s
}

func TestAllGatherAlgorithmsMatchReference(t *testing.T) {
	for _, p := range worldSizes {
		for _, alg := range []string{AlgRing, AlgRecursiveDoubling, AlgHierarchical, "auto"} {
			t.Run(fmt.Sprintf("%s/p=%d", alg, p), func(t *testing.T) {
				e := forcedEngine(t, p, algPolicy(alg))
				payloads := mkPayloads(p)
				got, out := e.AllGather(payloads, starts(p))
				want := refGather(payloads)
				if len(got) != len(want) {
					t.Fatalf("got %d slots", len(got))
				}
				for r := range want {
					if string(got[r]) != string(want[r]) {
						t.Fatalf("slot %d mismatch", r)
					}
				}
				checkOutcome(t, p, out, starts(p))
			})
		}
	}
}

func TestAllReduceAlgorithmsMatchReference(t *testing.T) {
	for _, p := range worldSizes {
		for _, alg := range []string{AlgRing, AlgHierarchical, "auto"} {
			t.Run(fmt.Sprintf("%s/p=%d", alg, p), func(t *testing.T) {
				e := forcedEngine(t, p, algPolicy(alg))
				vecs := mkVecs(p, 97)
				// The sum lands in the caller's storage from +0, whatever
				// that storage held.
				dst := make([]float64, 128)
				for i := range dst {
					dst[i] = math.NaN()
				}
				sum, out := e.AllReduce(dst, vecs, starts(p))
				if len(sum) != 97 || &sum[0] != &dst[0] {
					t.Fatalf("sum of %d values outside the caller's storage", len(sum))
				}
				want := refReduce(vecs)
				for i := range want {
					if math.Float64bits(sum[i]) != math.Float64bits(want[i]) { // bit-identical, rank-order sum
						t.Fatalf("elem %d: %g != %g", i, sum[i], want[i])
					}
				}
				checkOutcome(t, p, out, starts(p))
			})
		}
	}
}

func TestReduceScatterAlgorithmsMatchReference(t *testing.T) {
	for _, p := range worldSizes {
		for _, alg := range []string{AlgRing, AlgHierarchical, "auto"} {
			t.Run(fmt.Sprintf("%s/p=%d", alg, p), func(t *testing.T) {
				e := forcedEngine(t, p, algPolicy(alg))
				vecs := mkVecs(p, 53)
				shards, out := e.ReduceScatter(vecs, starts(p))
				want := refReduce(vecs)
				shard := len(want) / p
				pos := 0
				for r := 0; r < p; r++ {
					wantLen := shard
					if r == p-1 {
						wantLen = len(want) - pos
					}
					if len(shards[r]) != wantLen {
						t.Fatalf("rank %d shard length %d, want %d", r, len(shards[r]), wantLen)
					}
					for i, v := range shards[r] {
						if v != want[pos+i] {
							t.Fatalf("rank %d elem %d: %g != %g", r, i, v, want[pos+i])
						}
					}
					pos += wantLen
				}
				checkOutcome(t, p, out, starts(p))
			})
		}
	}
}

func TestBroadcastAlgorithmsDeliverRoot(t *testing.T) {
	for _, p := range worldSizes {
		for _, alg := range []string{AlgBinomial, AlgHierarchical, "auto"} {
			for _, root := range []int{0, p - 1} {
				t.Run(fmt.Sprintf("%s/p=%d/root=%d", alg, p, root), func(t *testing.T) {
					e := forcedEngine(t, p, algPolicy(alg))
					slots := make([][]byte, p)
					slots[root] = []byte("root-data")
					data, out := e.Broadcast(slots, root, starts(p))
					if string(data) != "root-data" {
						t.Fatalf("got %q", data)
					}
					checkOutcome(t, p, out, starts(p))
					// Every non-root rank must receive the payload in the
					// trace (p>1: each rank is a Dst exactly once).
					if p > 1 && out.Algorithm != "trivial" {
						recv := make([]int, p)
						for _, ev := range out.Events {
							recv[ev.Dst]++
						}
						for r := 0; r < p; r++ {
							if r != root && recv[r] != 1 {
								t.Fatalf("rank %d received %d times", r, recv[r])
							}
						}
					}
				})
			}
		}
	}
}

// algPolicy maps a test algorithm name to an engine policy string.
func algPolicy(alg string) string {
	if alg == "auto" {
		return ""
	}
	return alg
}

// checkOutcome verifies trace sanity: ends at/after the per-rank starts,
// events within the collective's span, monotone step numbering, and
// correct link classes.
func checkOutcome(t *testing.T, p int, out *Outcome, st []float64) {
	t.Helper()
	if len(out.Ends) != p {
		t.Fatalf("outcome has %d ends", len(out.Ends))
	}
	for r, e := range out.Ends {
		if e < st[r] {
			t.Fatalf("rank %d ends at %g before its start %g", r, e, st[r])
		}
	}
	topo := testTopology(p)
	lastStep := 0
	for _, ev := range out.Events {
		if ev.Step < lastStep {
			t.Fatalf("step went backwards: %d after %d", ev.Step, lastStep)
		}
		lastStep = ev.Step
		if ev.End < ev.Start {
			t.Fatalf("event ends before it starts: %+v", ev)
		}
		if ev.Src >= 0 {
			wantLink := LinkInter
			if topo.SameNode(ev.Src, ev.Dst) {
				wantLink = LinkIntra
			}
			if ev.Link != wantLink {
				t.Fatalf("event %+v has link %v, want %v", ev, ev.Link, wantLink)
			}
		}
	}
}

func TestHierarchicalBeatsFlatRingInterNode(t *testing.T) {
	// The paper's §4 hierarchical reduction: staging through NVLink node
	// leaders must strictly beat the flat ring whenever the collective
	// spans ≥ 2 nodes on Platform1-like parameters.
	for _, p := range []int{8, 12, 16} { // 2, 3, 4 nodes
		for _, bytes := range []int{1 << 16, 1 << 20, 1 << 22} {
			vecs := mkVecs(p, bytes/8)
			ringE := forcedEngine(t, p, AlgRing)
			hierE := forcedEngine(t, p, AlgHierarchical)
			st := make([]float64, p)
			_, ringOut := ringE.AllReduce(nil, vecs, st)
			_, hierOut := hierE.AllReduce(nil, vecs, st)
			if hierOut.MaxEnd() >= ringOut.MaxEnd() {
				t.Errorf("allreduce p=%d bytes=%d: hierarchical %.3e >= ring %.3e",
					p, bytes, hierOut.MaxEnd(), ringOut.MaxEnd())
			}
			payloads := make([][]byte, p)
			for r := range payloads {
				payloads[r] = make([]byte, bytes/p)
			}
			_, ringAG := ringE.AllGather(payloads, st)
			_, hierAG := hierE.AllGather(payloads, st)
			if hierAG.MaxEnd() >= ringAG.MaxEnd() {
				t.Errorf("allgather p=%d bytes=%d: hierarchical %.3e >= ring %.3e",
					p, bytes, hierAG.MaxEnd(), ringAG.MaxEnd())
			}
		}
	}
}

func TestSingleNodeRingUsesOnlyNVLink(t *testing.T) {
	e := forcedEngine(t, 4, AlgRing)
	vecs := mkVecs(4, 64)
	_, out := e.AllReduce(nil, vecs, make([]float64, 4))
	if len(out.Events) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range out.Events {
		if ev.Link != LinkIntra {
			t.Fatalf("intra-node collective used %v link: %+v", ev.Link, ev)
		}
	}
}

func TestContentionSerializesSharedNIC(t *testing.T) {
	// Two concurrent inter-node transfers from the same source node must
	// serialize on its NIC: the pair takes ~2x one transfer's time.
	e := forcedEngine(t, 8, "")
	launch := e.Topology().Launch
	// step runs one schedule step of 1 MB transfers between the (src, dst)
	// pairs and returns its makespan.
	step := func(pairs ...[2]int) float64 {
		s := e.newSim("x", "y", make([]float64, 8))
		defer s.release()
		for _, pr := range pairs {
			s.send(pr[0], pr[1], 1<<20)
		}
		s.endStep()
		return maxOf(s.clock) - launch
	}
	t1 := step([2]int{0, 4})
	t2 := step([2]int{0, 4}, [2]int{1, 5})
	if ratio := t2 / t1; math.Abs(ratio-2) > 0.05 {
		t.Fatalf("shared-NIC pair took %.2fx one transfer, want ~2x", ratio)
	}
	// Distinct node pairs do not contend.
	t3 := step([2]int{0, 4}, [2]int{4, 0})
	if math.Abs(t3/t1-1) > 0.05 {
		t.Fatalf("full-duplex pair took %.2fx one transfer, want ~1x", t3/t1)
	}
}

// TestSendValidatesBeforeSkippingSelfTransfers: a self-transfer is free, but
// only between ranks that exist — an out-of-range pair is a schedule bug
// whichever way its endpoints compare.
func TestSendValidatesBeforeSkippingSelfTransfers(t *testing.T) {
	e := forcedEngine(t, 8, "")
	for _, bad := range [][3]int{{-1, -1, 8}, {8, 8, 8}, {3, 3, -1}, {0, 8, 1}, {-1, 0, 1}} {
		func() {
			s := e.newSim("x", "y", make([]float64, 8))
			defer s.release()
			defer func() {
				if recover() == nil {
					t.Errorf("send(%d, %d, %d) did not panic", bad[0], bad[1], bad[2])
				}
			}()
			s.send(bad[0], bad[1], bad[2])
		}()
	}
	s := e.newSim("x", "y", make([]float64, 8))
	defer s.release()
	s.send(3, 3, 1<<20)
	if len(s.events) != 0 || s.clock[3] != e.Topology().Launch {
		t.Fatalf("in-range self-transfer was charged: %d events, clock %g", len(s.events), s.clock[3])
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(&Topology{}, ""); err == nil {
		t.Fatal("invalid topology accepted")
	}
	for _, policy := range []string{"bogus", "analytic"} {
		if _, err := NewEngine(testTopology(4), policy); err == nil {
			t.Fatalf("unknown policy %q accepted", policy)
		}
	}
}

func TestTrivialCollectivesAreFreeSyncPoints(t *testing.T) {
	e := forcedEngine(t, 4, "")
	st := []float64{1, 2, 5, 3}
	_, out := e.AllGather(make([][]byte, 4), st) // all-empty payloads
	for r, end := range out.Ends {
		if end != 5 {
			t.Fatalf("rank %d end %g, want sync to 5", r, end)
		}
	}
	if len(out.Events) != 0 {
		t.Fatal("trivial collective produced events")
	}
	one := forcedEngine(t, 1, "")
	_, out = one.AllReduce(nil, [][]float64{{1, 2}}, []float64{7})
	if out.Ends[0] != 7 {
		t.Fatalf("single-rank collective cost time: %g", out.Ends[0])
	}
}

func TestTopologyHelpers(t *testing.T) {
	topo := testTopology(10) // 3 nodes: 4+4+2
	if topo.Nodes() != 3 {
		t.Fatalf("nodes = %d", topo.Nodes())
	}
	if topo.Leader(2) != 8 {
		t.Fatalf("leader(2) = %d", topo.Leader(2))
	}
	if !topo.SameNode(4, 7) || topo.SameNode(3, 4) {
		t.Fatal("SameNode wrong")
	}
}
