package collective

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/schedule_ends_v1.json from this build")

// goldenPerturber is a deterministic LinkPerturber that makes every
// argument the simulator passes it — endpoints, nodes, link class, bytes
// and the transfer's start time — show up in the charged time, so a
// schedule that hands it different values cannot reproduce the file.
type goldenPerturber struct{}

func (goldenPerturber) PerturbLink(src, dst, srcNode, dstNode int, link LinkClass, bytes int, start float64) (float64, float64, float64) {
	as := 1 + 0.25*float64((7*src+3*dst)%5)
	bs := 1 + 0.5*float64((srcNode+2*dstNode)%3)
	if link == LinkInter {
		bs *= 1.25
	}
	if start > 2e-4 {
		as *= 1.5
	}
	return as, bs, 0.01 * float64((bytes+src)%7)
}

var goldenSizeKinds = []string{"uniform", "ragged", "somezero"}

// goldenSizes returns the Exec size spec of one matrix cell: per-rank
// bytes for all-gather and reduce-scatter, one total for all-reduce and
// broadcast. "somezero" gives zero-byte ranks, an all-reduce with fewer
// bytes than ring chunks, and the empty (trivial) broadcast.
func goldenSizes(op, kind string, p int) []int {
	if op == OpAllReduce || op == OpBroadcast {
		switch kind {
		case "uniform":
			return []int{1 << 20}
		case "ragged":
			return []int{1000003}
		}
		if op == OpAllReduce {
			return []int{5}
		}
		return []int{0}
	}
	sizes := make([]int, p)
	for r := range sizes {
		switch kind {
		case "uniform":
			sizes[r] = 4096
		case "ragged":
			sizes[r] = 1 + 13*((r*37)%101)
		default:
			if r%3 != 1 {
				sizes[r] = 900 + 137*(r%7)
			}
		}
	}
	return sizes
}

func goldenStarts(p int) []float64 {
	st := make([]float64, p)
	for r := range st {
		st[r] = 1e-4*float64((5*r)%7) + 3e-5*float64(r%2)
	}
	return st
}

// goldenRoots returns the distinct broadcast roots of a cell: rank 0, a
// non-leader (off node 0 when the world has one), and the last rank.
func goldenRoots(p, g int) []int {
	nonLeader := 0
	switch {
	case g > 1 && g+1 < p:
		nonLeader = g + 1
	case p > 1:
		nonLeader = 1
	}
	roots := []int{0}
	for _, r := range []int{nonLeader, p - 1} {
		if r != roots[len(roots)-1] && r != 0 {
			roots = append(roots, r)
		}
	}
	return roots
}

// goldenRecord renders an outcome as one line: the float64 bits of Start,
// Predicted and every Ends[r], plus the count and an FNV-64a hash of the
// ordered event list (every field of every event).
func goldenRecord(out *Outcome) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ev := range out.Events {
		h.Write([]byte(ev.Op))
		h.Write([]byte{0})
		h.Write([]byte(ev.Algorithm))
		h.Write([]byte{0})
		put(uint64(ev.Step))
		put(uint64(ev.Src))
		put(uint64(ev.Dst))
		put(uint64(ev.Link))
		put(uint64(ev.Bytes))
		put(math.Float64bits(ev.Start))
		put(math.Float64bits(ev.End))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s bytes=%d start=%016x pred=%016x events=%d/%016x ends=",
		out.Algorithm, out.Bytes, math.Float64bits(out.Start), math.Float64bits(out.Predicted),
		len(out.Events), h.Sum64())
	for _, e := range out.Ends {
		fmt.Fprintf(&b, "%016x", math.Float64bits(e))
	}
	return b.String()
}

// goldenCell is one cell of the schedule matrix: {op × algorithm} × world
// size × node width (partial last nodes included) × size pattern × {clean,
// perturbed links} × broadcast root, from non-uniform arrival times.
type goldenCell struct {
	key, op, alg string
	p, g, root   int
	kind         string
	pert         bool
}

func goldenCells() []goldenCell {
	menu := []struct {
		op   string
		algs []string
	}{
		{OpAllGather, []string{AlgRing, AlgRecursiveDoubling, AlgHierarchical}},
		{OpAllReduce, []string{AlgRing, AlgHierarchical}},
		{OpReduceScatter, []string{AlgRing, AlgHierarchical}},
		{OpBroadcast, []string{AlgBinomial, AlgHierarchical}},
	}
	var cells []goldenCell
	for _, m := range menu {
		for _, alg := range m.algs {
			for _, p := range []int{1, 2, 3, 5, 8, 13, 16, 64} {
				for _, g := range []int{1, 3, 4, 8} {
					roots := []int{0}
					if m.op == OpBroadcast {
						roots = goldenRoots(p, g)
					}
					for _, kind := range goldenSizeKinds {
						for _, pert := range []bool{false, true} {
							for _, root := range roots {
								key := fmt.Sprintf("%s/%s/p=%d/g=%d/%s", m.op, alg, p, g, kind)
								if pert {
									key += "/perturbed"
								}
								if m.op == OpBroadcast {
									key += fmt.Sprintf("/root=%d", root)
								}
								cells = append(cells, goldenCell{key, m.op, alg, p, g, root, kind, pert})
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// exec runs the cell on a fresh engine, with or without event retention.
func (c goldenCell) exec(t *testing.T, retain bool) *Outcome {
	topo := testTopology(c.p)
	topo.GPUsPerNode = c.g
	e, err := NewEngine(topo, CostModel{}, c.alg)
	if err != nil {
		t.Fatal(err)
	}
	if c.pert {
		e.SetPerturber(goldenPerturber{})
	}
	e.SetEventRetention(retain)
	return e.Exec(c.op, goldenSizes(c.op, c.kind, c.p), c.root, goldenStarts(c.p))
}

// TestScheduleGolden pins every schedule's simulated result bit for bit
// against testdata/schedule_ends_v1.json, over the cells of goldenCells. The
// engine-vs-engine matrices cannot see a rewrite that moves both engines
// the same way; this file, written by `go test -run TestScheduleGolden
// -update` at the reference commit, can.
func TestScheduleGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits are recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	got := map[string]string{}
	for _, c := range goldenCells() {
		got[c.key] = goldenRecord(c.exec(t, true))
	}

	path := filepath.Join("testdata", "schedule_ends_v1.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update at the reference commit)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cells, golden has %d", len(got), len(want))
	}
	bad := 0
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: in the golden file but not run", key)
		} else if g != w {
			if bad++; bad <= 10 {
				t.Errorf("%s:\n got  %s\n want %s", key, g, w)
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d cells differ (first 10 shown)", bad)
	}
}

// TestScheduleGoldenWithoutRetention re-runs every golden cell the way des
// runs collectives — events dropped — and wants the times of the retained
// run, bit for bit: events record, they never steer.
func TestScheduleGoldenWithoutRetention(t *testing.T) {
	for _, c := range goldenCells() {
		kept, dropped := c.exec(t, true), c.exec(t, false)
		if len(dropped.Events) != 0 {
			t.Errorf("%s: %d events retained with retention off", c.key, len(dropped.Events))
		}
		if !sameBits([]float64{kept.Start, kept.Predicted}, []float64{dropped.Start, dropped.Predicted}) ||
			!sameBits(kept.Ends, dropped.Ends) {
			t.Errorf("%s: times differ with retention off\n kept    %s\n dropped %s", c.key, goldenRecord(kept), goldenRecord(dropped))
		}
	}
}

// sameBits reports whether two vectors hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
