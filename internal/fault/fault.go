// Package fault is the deterministic fault-injection layer for the
// simulated cluster. Real Slingshot/NVLink clusters are not the clean
// α–β fabric the scheduled topology assumes: they have straggler GPUs
// (thermal throttling, noisy neighbours), degraded or flaky links
// (misbehaving switches, cable errors forcing retransmits), and — rarely
// but measurably at scale — corrupted payloads that survive link-level
// CRCs. A reproduction whose value proposition is "compression overhead
// stays below communication savings on real clusters" must be able to
// express those conditions and show the compressed path degrading
// gracefully under them.
//
// Everything in this package is deterministic: every fault decision is a
// pure hash of (plan seed, site identity), never a stateful RNG draw, so
// identical seeds and fault plans reproduce bit-identical simulated runs
// regardless of goroutine scheduling — the SPMD determinism contract the
// rest of the repo relies on. That is also what makes the train-layer
// recovery protocol possible: every rank computes the same corruption
// verdict for a sender's blob, so all ranks enter the bounded-retry /
// lossless-fallback path in lockstep instead of deadlocking.
//
// The three fault classes, mirroring what operators actually observe:
//
//   - Straggler: a per-rank compute-time multiplier, transient (a step
//     window) or persistent. Injected where cluster.Worker.Compute charges
//     simulated seconds.
//   - LinkFault: α/β inflation on selected edges (by node pair and link
//     class) plus per-message jitter. Injected where the collective
//     engine's stepped simulator charges link time, so the autotuner's
//     measured EWMAs — and therefore its picks — re-tune under the
//     degraded topology.
//   - Corruption: bit-flips in compressed blobs at a configurable
//     per-blob rate, applied "on the wire" (at the source, so every
//     receiver observes the same bytes). Injected in the training loop's
//     gather paths, where decode failures trigger retry then lossless
//     fallback.
package fault

import (
	"fmt"
	"math"

	"compso/internal/collective"
)

// Plan declares a deterministic fault scenario for one simulated run. The
// zero value (and a nil *Plan) injects nothing.
type Plan struct {
	// Seed namespaces every fault decision. Two runs with the same Seed
	// and the same fault lists make identical decisions everywhere.
	Seed int64
	// Stragglers slow down chosen ranks' compute.
	Stragglers []Straggler
	// Links degrade chosen edges of the topology.
	Links []LinkFault
	// Corruption flips bits in compressed payloads on the wire.
	Corruption Corruption
	// Crashes kill chosen workers at deterministic sites; the training
	// loop recovers by rolling every rank back to the last checkpoint.
	Crashes []WorkerCrash
	// MaxRetries bounds the per-blob decode retries before the training
	// loop falls back to a lossless re-broadcast (default 2).
	MaxRetries int
	// Guard configures the straggler-aware collective guard: when the
	// measured schedule time diverges from the engine's fault-free model
	// prediction for Patience consecutive steps, the training loop resets
	// the autotuner's measured state so it re-tunes under the current
	// conditions.
	Guard Guard
}

// Straggler slows one rank's compute by a multiplicative factor over a
// step window.
type Straggler struct {
	// Rank is the afflicted worker.
	Rank int
	// Factor multiplies every Compute charge (>= 1; 2.0 = half speed).
	Factor float64
	// FromStep is the first affected training step (inclusive).
	FromStep int
	// ToStep is the first unaffected step; <= 0 means persistent from
	// FromStep onward.
	ToStep int
}

// active reports whether the straggler afflicts the given step.
func (s Straggler) active(step int) bool {
	if step < s.FromStep {
		return false
	}
	return s.ToStep <= 0 || step < s.ToStep
}

// LinkFault degrades the links matching its selector: α and β are scaled
// by the given factors and each message is stretched by a deterministic
// per-message jitter drawn from [0, Jitter].
type LinkFault struct {
	// SrcNode and DstNode select the edge by node pair; -1 matches any
	// node. Intra-node links have SrcNode == DstNode.
	SrcNode, DstNode int
	// Link selects the link class: "intra", "inter", or "" for both.
	Link string
	// AlphaFactor and BetaFactor scale the link's latency and inverse
	// bandwidth (0 means unchanged, i.e. treated as 1).
	AlphaFactor, BetaFactor float64
	// Jitter is the maximum fractional per-message inflation: each
	// matching transfer is stretched by a deterministic uniform draw from
	// [0, Jitter] (0.25 = up to 25% slower per message).
	Jitter float64
}

// matches reports whether the fault selects a transfer on the given edge.
func (l LinkFault) matches(srcNode, dstNode int, link collective.LinkClass) bool {
	if l.Link != "" && l.Link != link.String() {
		return false
	}
	if l.SrcNode >= 0 && l.SrcNode != srcNode {
		return false
	}
	if l.DstNode >= 0 && l.DstNode != dstNode {
		return false
	}
	return true
}

// Corruption flips bits in compressed blobs on the wire.
type Corruption struct {
	// Rate is the per-(step, sender, attempt) probability that a blob is
	// corrupted in flight. 0 disables corruption.
	Rate float64
	// BitFlips is how many bits flip in a corrupted blob (default 3).
	BitFlips int
	// FromStep and ToStep bound the affected step window; ToStep <= 0
	// means no upper bound.
	FromStep, ToStep int
}

func (c Corruption) active(step int) bool {
	if c.Rate <= 0 || step < c.FromStep {
		return false
	}
	return c.ToStep <= 0 || step < c.ToStep
}

// Guard configures the straggler-aware collective guard.
type Guard struct {
	// Ratio is the divergence threshold: a step whose measured schedule
	// seconds exceed Ratio × the engine's fault-free prediction counts as
	// divergent. <= 0 disables the guard.
	Ratio float64
	// Patience is how many consecutive divergent steps trigger a retune
	// (default 3).
	Patience int
}

// PatienceOrDefault returns the effective patience.
func (g Guard) PatienceOrDefault() int {
	if g.Patience > 0 {
		return g.Patience
	}
	return 3
}

// Validate reports plan errors.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, s := range p.Stragglers {
		if s.Rank < 0 {
			return fmt.Errorf("fault: straggler rank %d", s.Rank)
		}
		if s.Factor < 1 {
			return fmt.Errorf("fault: straggler factor %g < 1 (rank %d)", s.Factor, s.Rank)
		}
		if s.ToStep > 0 && s.ToStep <= s.FromStep {
			return fmt.Errorf("fault: straggler window [%d,%d) is empty (rank %d)", s.FromStep, s.ToStep, s.Rank)
		}
	}
	for i, l := range p.Links {
		if l.AlphaFactor < 0 || l.BetaFactor < 0 {
			return fmt.Errorf("fault: link fault %d has negative factor", i)
		}
		if l.Jitter < 0 {
			return fmt.Errorf("fault: link fault %d has negative jitter %g", i, l.Jitter)
		}
		switch l.Link {
		case "", "intra", "inter":
		default:
			return fmt.Errorf("fault: link fault %d selects unknown class %q", i, l.Link)
		}
	}
	if p.Corruption.Rate < 0 || p.Corruption.Rate > 1 {
		return fmt.Errorf("fault: corruption rate %g outside [0,1]", p.Corruption.Rate)
	}
	if p.Corruption.BitFlips < 0 {
		return fmt.Errorf("fault: negative corruption bit flips %d", p.Corruption.BitFlips)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: negative MaxRetries %d", p.MaxRetries)
	}
	if p.Guard.Ratio < 0 {
		return fmt.Errorf("fault: negative guard ratio %g", p.Guard.Ratio)
	}
	if p.Guard.Patience < 0 {
		return fmt.Errorf("fault: negative guard patience %d", p.Guard.Patience)
	}
	for i, c := range p.Crashes {
		if err := c.validate(); err != nil {
			return fmt.Errorf("fault: crash %d: %w", i, err)
		}
	}
	return nil
}

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return len(p.Stragglers) > 0 || len(p.Links) > 0 || p.Corruption.Rate > 0 || len(p.Crashes) > 0
}

// Retries returns the effective decode-retry budget.
func (p *Plan) Retries() int {
	if p == nil {
		return 0
	}
	if p.MaxRetries > 0 {
		return p.MaxRetries
	}
	return 2
}

// Injector executes a validated plan. It is stateless beyond the plan
// itself — every decision is a pure hash — so it is safe for concurrent
// use from all worker goroutines. A nil *Injector injects nothing.
type Injector struct {
	plan Plan
}

// NewInjector compiles a plan. A nil or do-nothing plan yields a nil
// injector (the disabled injector); invalid plans return an error.
func NewInjector(p *Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Enabled() {
		return nil, nil
	}
	return &Injector{plan: *p}, nil
}

// ComputeFactor returns the compute-time multiplier for a rank at a step
// (1 when unafflicted). Overlapping stragglers compose multiplicatively.
func (inj *Injector) ComputeFactor(rank, step int) float64 {
	if inj == nil {
		return 1
	}
	f := 1.0
	for _, s := range inj.plan.Stragglers {
		if s.Rank == rank && s.active(step) {
			f *= s.Factor
		}
	}
	return f
}

// PerturbLink implements collective.LinkPerturber: it returns the α and β
// scale factors and the realized per-message jitter fraction for one
// transfer. Matching faults compose: scale factors multiply, jitter caps
// add, and one deterministic uniform draw realizes the combined cap. The
// draw is keyed on (seed, endpoints, bytes, start-time bits), so it is
// reproducible across runs and independent of scheduling order.
func (inj *Injector) PerturbLink(src, dst, srcNode, dstNode int, link collective.LinkClass, bytes int, start float64) (alphaScale, betaScale, jitter float64) {
	if inj == nil {
		return 1, 1, 0
	}
	alphaScale, betaScale = 1, 1
	jcap := 0.0
	for _, l := range inj.plan.Links {
		if !l.matches(srcNode, dstNode, link) {
			continue
		}
		if l.AlphaFactor > 0 {
			alphaScale *= l.AlphaFactor
		}
		if l.BetaFactor > 0 {
			betaScale *= l.BetaFactor
		}
		jcap += l.Jitter
	}
	if jcap > 0 {
		h := inj.hash(0x11, uint64(src), uint64(dst), uint64(uint(link)), uint64(bytes), math.Float64bits(start))
		jitter = unit(h) * jcap
	}
	return alphaScale, betaScale, jitter
}

// ShouldCorrupt reports whether the blob a sender injects at a step (on
// the given delivery attempt) is corrupted in flight. The verdict is a
// pure function of the plan seed and (step, sender, attempt): every rank —
// including the sender receiving its own contribution — computes the same
// answer, which keeps the SPMD recovery protocol in lockstep.
func (inj *Injector) ShouldCorrupt(step, sender, attempt int) bool {
	if inj == nil || !inj.plan.Corruption.active(step) {
		return false
	}
	h := inj.hash(0x22, uint64(step), uint64(sender), uint64(attempt))
	return unit(h) < inj.plan.Corruption.Rate
}

// CorruptBlob returns the blob as delivered: when the (step, sender,
// attempt) site draws a corruption, a copy with BitFlips deterministic
// bit-flips (and true); otherwise the input slice itself (and false).
func (inj *Injector) CorruptBlob(blob []byte, step, sender, attempt int) ([]byte, bool) {
	if len(blob) == 0 || !inj.ShouldCorrupt(step, sender, attempt) {
		return blob, false
	}
	flips := inj.plan.Corruption.BitFlips
	if flips <= 0 {
		flips = 3
	}
	out := append([]byte(nil), blob...)
	for i := 0; i < flips; i++ {
		h := inj.hash(0x33, uint64(step), uint64(sender), uint64(attempt), uint64(i))
		pos := h % uint64(len(out)*8)
		out[pos/8] ^= 1 << (pos % 8)
	}
	return out, true
}

// hash chains a splitmix64-style finalizer over the plan seed, a domain
// tag and the site words.
func (inj *Injector) hash(domain uint64, parts ...uint64) uint64 {
	acc := mix(uint64(inj.plan.Seed) ^ (domain * 0x9e3779b97f4a7c15))
	for _, p := range parts {
		acc = mix((acc ^ p) + 0x9e3779b97f4a7c15)
	}
	return acc
}

// mix is the splitmix64 finalizer (Stafford variant 13).
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
