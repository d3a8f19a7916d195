package collective

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// ringStepped is the ring as it was scheduled before the dense kernel: one
// send per transfer, one endStep per step. It is the reference the kernel
// is held to, bit for bit (TestRingMatchesStepped).
func ringStepped(s *sim, n, stride, off int, chunks []int) {
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

// ringCase is one differential run: a world, a ring over it, and what the
// sim has been through when the ring starts.
type ringCase struct {
	p, g      int
	leaders   bool // ring over the node leaders (stride g), else over all ranks
	pert      bool
	retain    bool
	stage     string // what ran before the ring: "", "reduce", "gather" or "cross"
	chunkKind string // "uniform", "ragged" or "zeros"
}

func (c ringCase) String() string {
	return fmt.Sprintf("p=%d g=%d leaders=%v pert=%v retain=%v stage=%q chunks=%s",
		c.p, c.g, c.leaders, c.pert, c.retain, c.stage, c.chunkKind)
}

// run drives one sim through the case with the given ring and returns it:
// a stage that leaves ports busy and clocks apart ("cross" sends between
// the last ranks of nodes two apart, so NICs are busy past their leaders'
// clocks), the ring from chunk offset 0 and again from 1 (the second finds
// the first's ports), then a broadcast through send, which reads whatever
// the ring left in clock, ports, step and stamps.
func (c ringCase) run(t *testing.T, seed int64, ring func(s *sim, n, stride, off int, chunks []int)) *sim {
	topo := testTopology(c.p)
	topo.GPUsPerNode = c.g
	alg, n, stride := AlgRing, c.p, 1
	if c.leaders {
		alg, n, stride = AlgHierarchical, topo.Nodes(), c.g
	}
	e, err := NewEngine(topo, alg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	starts := make([]float64, c.p)
	for r := range starts {
		starts[r] = 3e-4 * rng.Float64()
	}
	chunks := make([]int, n)
	for i := range chunks {
		switch c.chunkKind {
		case "uniform":
			chunks[i] = 1 << 16
		case "ragged":
			chunks[i] = rng.Intn(1 << 19)
		default:
			if rng.Intn(3) == 0 {
				chunks[i] = 1 + rng.Intn(4096)
			}
		}
	}
	s := e.newSim(OpAllReduce, alg, starts)
	s.dropEvents = !c.retain
	if c.pert {
		s.pert = goldenPerturber{}
	}
	switch c.stage {
	case "reduce":
		nodeReduce(s, 1<<18)
	case "gather":
		for r := 0; r < c.p; r++ {
			if lead := int(s.node[r]) * c.g; r != lead {
				s.send(r, lead, 1000+37*r)
			}
		}
		s.endStep()
	case "cross":
		for r := c.g - 1; r < c.p; r += c.g {
			s.send(r, (r+2*c.g)%c.p, 1<<17+r)
		}
		s.endStep()
	}
	ring(s, n, stride, 0, chunks)
	ring(s, n, stride, 1, chunks)
	groupBcast(s, c.g, 0, 0, 1<<18)
	return s
}

// TestRingMatchesStepped holds the dense ring kernel to the loop over send
// it replaced: from the same state both must leave the same clocks, ports,
// step count and event list, bit for bit — flat and leader rings, node
// widths with partial last nodes, ragged and zero chunks, both chunk
// offsets, busy ports, a perturber, retention on and off.
func TestRingMatchesStepped(t *testing.T) { eachPath(t, ringMatchesStepped) }

func ringMatchesStepped(t *testing.T) {
	seed := int64(0)
	for _, n := range []int{2, 3, 5, 16, 64, 257, 1000} {
		for gi, g := range []int{1, 3, 4, 8} {
			for _, leaders := range []bool{false, true} {
				p := n
				if leaders {
					p = (n-1)*g + 1 + (n+gi)%g // n nodes, the last one partial for most (n, g)
				}
				for _, pert := range []bool{false, true} {
					for _, retain := range []bool{false, true} {
						if retain && n > 257 {
							continue // a million events a sim
						}
						seed++
						c := ringCase{
							p: p, g: g, leaders: leaders, pert: pert, retain: retain,
							stage:     []string{"", "reduce", "gather", "cross"}[seed%4],
							chunkKind: []string{"uniform", "ragged", "zeros"}[(seed/4)%3],
						}
						want, got := c.run(t, seed, ringStepped), c.run(t, seed, ring)
						if got.step != want.step {
							t.Errorf("%v: step %d, stepped ring %d", c, got.step, want.step)
						}
						for name, v := range map[string][2][]float64{
							"clock":   {got.clock, want.clock},
							"egress":  {got.egress, want.egress},
							"ingress": {got.ingress, want.ingress},
							"nicOut":  {got.nicOut, want.nicOut},
							"nicIn":   {got.nicIn, want.nicIn},
						} {
							if !sameBits(v[0], v[1]) {
								t.Errorf("%v: %s differs from the stepped ring", c, name)
							}
						}
						if len(got.events) != len(want.events) {
							t.Errorf("%v: %d events, stepped ring %d", c, len(got.events), len(want.events))
						} else {
							for i, ev := range got.events {
								w := want.events[i]
								if math.Float64bits(ev.Start) != math.Float64bits(w.Start) || math.Float64bits(ev.End) != math.Float64bits(w.End) {
									t.Errorf("%v: event %d times %+v, stepped ring %+v", c, i, ev, w)
									break
								}
								if ev.Start, ev.End = w.Start, w.End; ev != w {
									t.Errorf("%v: event %d is %+v, stepped ring %+v", c, i, ev, w)
									break
								}
							}
						}
						if retain && len(got.events) == 0 {
							t.Errorf("%v: no events retained", c)
						}
						got.release()
						want.release()
					}
				}
			}
		}
	}
}

// TestRingRejectsBadTransfers: what send refused transfer by transfer, the
// kernel refuses once, before it writes anything.
func TestRingRejectsBadTransfers(t *testing.T) {
	e := forcedEngine(t, 8, AlgRing)
	for _, bad := range []struct {
		name      string
		n, stride int
		chunks    []int
	}{
		{"negative chunk", 4, 1, []int{1, 2, -3, 4}},
		{"too few chunks", 4, 1, []int{1, 2, 3}},
		{"member past the world", 5, 2, []int{1, 2, 3, 4, 5}},
		{"negative stride", 3, -1, []int{1, 2, 3}},
	} {
		func() {
			s := e.newSim("x", AlgRing, goldenStarts(8))
			defer s.release()
			before := append([]float64(nil), s.clock...)
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "collective: bad transfer") {
					t.Errorf("%s: recovered %q, want a bad-transfer panic", bad.name, msg)
				}
				if s.step != 0 || !sameBits(s.clock, before) || maxOf(s.f64[:len(s.f64)-len(s.scratch)]) != 0 {
					t.Errorf("%s: state written before the panic", bad.name)
				}
			}()
			ring(s, bad.n, bad.stride, 0, bad.chunks)
		}()
	}
	s := e.newSim("x", AlgRing, goldenStarts(8))
	defer s.release()
	before := append([]float64(nil), s.clock...)
	ring(s, 1, 1, 0, []int{7})
	ring(s, 0, 1, 0, nil)
	if s.step != 0 || len(s.events) != 0 || !sameBits(s.clock, before) {
		t.Errorf("a ring of fewer than two members did something: step %d, %d events", s.step, len(s.events))
	}
}
