package collective

import (
	"fmt"
	"sort"
	"sync"
)

// CostModel supplies the legacy closed-form α–β charges, used by the
// selectable "analytic" algorithm for backward compatibility. Any nil
// function disables the analytic path for that op.
type CostModel struct {
	AllReduce     func(nBytes int) float64
	AllGather     func(sizes []int) float64
	ReduceScatter func(nBytes int) float64
	Broadcast     func(nBytes int) float64
}

// Outcome describes one executed collective: the chosen algorithm, each
// rank's completion time, and the per-step event trace.
type Outcome struct {
	Op        string
	Algorithm string
	// Bytes is the collective's total wire size (the sum of the spec's
	// per-rank sizes), for observability attribution.
	Bytes int
	// Start is the collective's logical begin (the last arrival).
	Start float64
	// Ends holds each rank's simulated completion time. Ranks that finish
	// their part of the schedule early get earlier times.
	Ends []float64
	// Predicted is the fault-free cost-model makespan of the same
	// algorithm and spec (a dry run from uniform clocks, unaffected by any
	// link perturber). Comparing it against the executed makespan is how
	// the training loop's straggler guard detects a degraded fabric.
	Predicted float64
	// Events is the full per-step transfer trace.
	Events []Event
}

// EventsFor returns the trace entries rank participated in (summary events
// with Src = Dst = -1 are included for every rank).
func (o *Outcome) EventsFor(rank int) []Event {
	var out []Event
	for _, ev := range o.Events {
		if ev.Src == rank || ev.Dst == rank || ev.Src < 0 {
			out = append(out, ev)
		}
	}
	return out
}

// MaxEnd returns the collective's makespan end time.
func (o *Outcome) MaxEnd() float64 { return maxOf(o.Ends) }

// LinkPerturber perturbs per-transfer link timing — the hook the fault
// layer plugs degraded links and per-message jitter through. For one
// transfer it returns multiplicative α and β scale factors plus a realized
// fractional jitter; the simulator charges
//
//	(α·alphaScale + β·bytes·betaScale) · (1 + jitter)
//
// Implementations must be deterministic pure functions of their arguments
// (plus internal configuration) so simulated runs stay reproducible.
type LinkPerturber interface {
	PerturbLink(src, dst, srcNode, dstNode int, link LinkClass, bytes int, start float64) (alphaScale, betaScale, jitter float64)
}

// Engine dispatches collectives to step-level algorithms over a Topology.
// It is safe for concurrent use; in practice the cluster's rendezvous
// serializes collective execution.
type Engine struct {
	topo *Topology
	// node is the rank→node table every schedule step looks links up in,
	// built once here so no transfer divides by GPUsPerNode.
	node   []int32
	cost   CostModel
	policy string
	pert   LinkPerturber
	// dropEvents disables per-transfer event retention in executed
	// schedules (SetEventRetention). Timing, tuner feedback and Outcome
	// end times are unaffected; Outcome.Events is simply empty.
	dropEvents bool

	mu    sync.Mutex
	tuner *autotuner
}

// Policies returns the accepted policy strings: "" / "auto" (autotune per
// collective and message size), "analytic" (legacy closed forms), or a
// forced algorithm name (which falls back to autotuning for ops it does
// not implement).
func Policies() []string {
	return []string{"", "auto", AlgAnalytic, AlgRing, AlgRecursiveDoubling, AlgBinomial, AlgHierarchical}
}

// ValidPolicy reports whether name is an accepted policy string.
func ValidPolicy(name string) bool {
	for _, p := range Policies() {
		if name == p {
			return true
		}
	}
	return false
}

// NewEngine builds an engine for the topology. policy selects the dispatch
// rule (see Policies). The cost model may be zero-valued if the analytic
// algorithm is never requested.
func NewEngine(topo *Topology, cost CostModel, policy string) (*Engine, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if !ValidPolicy(policy) {
		return nil, fmt.Errorf("collective: unknown policy %q (have %v)", policy, Policies())
	}
	if policy == AlgAnalytic && (cost.AllReduce == nil || cost.AllGather == nil ||
		cost.ReduceScatter == nil || cost.Broadcast == nil) {
		return nil, fmt.Errorf("collective: analytic policy requires a full cost model")
	}
	node := make([]int32, topo.P)
	for r := range node {
		node[r] = int32(topo.Node(r))
	}
	return &Engine{topo: topo, node: node, cost: cost, policy: policy, tuner: newAutotuner()}, nil
}

// Topology returns the engine's platform model.
func (e *Engine) Topology() *Topology { return e.topo }

// SetPerturber installs a link perturber (nil removes it). Install before
// the engine starts executing collectives; the stepped schedules and
// P2PTime consult it, while prediction dry runs stay fault-free so the
// tuner's seeds — and the guard's divergence baseline — describe the
// healthy fabric.
func (e *Engine) SetPerturber(p LinkPerturber) {
	e.mu.Lock()
	e.pert = p
	e.mu.Unlock()
}

// SetEventRetention enables or disables per-transfer event retention in
// executed schedules (on by default). Both time engines turn it off unless
// their trace switch (or a recorder's transfer spans) wants the events: a
// flat ring at P=8192 schedules ~67M transfers per collective, and
// retaining them would dominate memory for traces nobody reads.
// Timing is bit-identical either way — events only record, never steer.
// Call before the engine starts executing collectives.
func (e *Engine) SetEventRetention(on bool) { e.dropEvents = !on }

// perturber returns the installed link perturber (nil when none).
func (e *Engine) perturber() LinkPerturber {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pert
}

// Retune discards the autotuner's measured state so subsequent picks
// re-seed from cost-model dry runs and re-learn from fresh measurements —
// the recovery action of the training loop's straggler guard after the
// fabric's behaviour shifts (EWMAs learned under old conditions would
// otherwise keep steering picks).
func (e *Engine) Retune() {
	e.mu.Lock()
	e.tuner.measured = make(map[tuneKey]*ewma)
	e.mu.Unlock()
}

// P2PTime returns the α–β cost of one point-to-point message between two
// ranks at the given start time, applying the installed link perturber
// (topology cost when none). It is the engine-aware replacement for
// Topology.P2PTime on live transfer paths.
func (e *Engine) P2PTime(src, dst, bytes int, start float64) float64 {
	if src == dst {
		return 0
	}
	t := e.topo
	sn, dn := t.Node(src), t.Node(dst)
	link, alpha, beta := LinkInter, t.InterAlpha, t.InterBeta
	if sn == dn {
		link, alpha, beta = LinkIntra, t.IntraAlpha, t.IntraBeta
	}
	if p := e.perturber(); p != nil {
		return perturbedTime(p, src, dst, sn, dn, link, bytes, start, alpha, beta)
	}
	return linkTime(alpha, beta, float64(bytes))
}

// Algorithms returns the step-level algorithm menu for an op (the analytic
// fallback is policy-only and not listed).
func (e *Engine) Algorithms(op string) []string {
	switch op {
	case OpAllGather:
		return []string{AlgRing, AlgRecursiveDoubling, AlgHierarchical}
	case OpAllReduce:
		return []string{AlgRing, AlgHierarchical}
	case OpReduceScatter:
		return []string{AlgRing, AlgHierarchical}
	case OpBroadcast:
		return []string{AlgBinomial, AlgHierarchical}
	}
	return nil
}

// spec captures one collective invocation for scheduling purposes.
type spec struct {
	op string
	// sizes is per-rank contribution bytes (allgather), per-rank shard
	// bytes (reducescatter), or the single total wire size (allreduce,
	// broadcast).
	sizes []int
	root  int
}

func (sp spec) total() int {
	t := 0
	for _, s := range sp.sizes {
		t += s
	}
	return t
}

// scheduleFor returns the schedule of (op, alg) — a function streaming the
// spec's steps through a sim — or nil when the algorithm does not implement
// the op.
func scheduleFor(alg, op string) func(*sim, spec) {
	switch op {
	case OpAllGather:
		switch alg {
		case AlgRing:
			return ringChunks
		case AlgRecursiveDoubling:
			return recursiveDoublingAllGather
		case AlgHierarchical:
			return hierarchicalAllGather
		}
	case OpAllReduce:
		switch alg {
		case AlgRing:
			return ringAllReduce
		case AlgHierarchical:
			return hierarchicalAllReduce
		}
	case OpReduceScatter:
		switch alg {
		case AlgRing:
			return ringChunks
		case AlgHierarchical:
			return hierarchicalReduceScatter
		}
	case OpBroadcast:
		switch alg {
		case AlgBinomial:
			return binomialBroadcast
		case AlgHierarchical:
			return hierarchicalBroadcast
		}
	}
	return nil
}

// analyticTime evaluates the closed-form charge for a spec.
func (e *Engine) analyticTime(sp spec) float64 {
	switch sp.op {
	case OpAllGather:
		if e.cost.AllGather != nil {
			return e.cost.AllGather(sp.sizes)
		}
	case OpAllReduce:
		if e.cost.AllReduce != nil {
			return e.cost.AllReduce(sp.total())
		}
	case OpReduceScatter:
		if e.cost.ReduceScatter != nil {
			return e.cost.ReduceScatter(sp.total())
		}
	case OpBroadcast:
		if e.cost.Broadcast != nil {
			return e.cost.Broadcast(sp.total())
		}
	}
	return 0
}

// dispatch picks an algorithm for the spec and executes its schedule.
func (e *Engine) dispatch(sp spec, starts []float64) *Outcome {
	start := maxOf(starts)
	// Trivial cases keep the legacy semantics: free, but still a sync
	// point at the last arrival.
	if e.topo.P == 1 || sp.total() == 0 {
		ends := make([]float64, e.topo.P)
		for i := range ends {
			ends[i] = start
		}
		return &Outcome{Op: sp.op, Algorithm: "trivial", Bytes: sp.total(), Start: start, Ends: ends}
	}
	alg := e.pick(sp)
	if alg == AlgAnalytic {
		ana := e.analyticTime(sp)
		t := start + ana
		ends := make([]float64, e.topo.P)
		for i := range ends {
			ends[i] = t
		}
		link := LinkIntra
		if e.topo.Nodes() > 1 {
			link = LinkInter
		}
		return &Outcome{
			Op: sp.op, Algorithm: AlgAnalytic, Bytes: sp.total(), Start: start, Ends: ends,
			Predicted: ana,
			Events: []Event{{Op: sp.op, Algorithm: AlgAnalytic, Src: -1, Dst: -1,
				Link: link, Bytes: sp.total(), Start: start, End: t}},
		}
	}
	s := e.newSim(sp.op, alg, starts)
	s.pert = e.perturber()
	s.dropEvents = e.dropEvents
	scheduleFor(alg, sp.op)(s, sp)
	out := &Outcome{Op: sp.op, Algorithm: alg, Bytes: sp.total(), Start: start, Ends: s.clock, Events: s.events}
	s.release()
	e.mu.Lock()
	out.Predicted = e.predictSeed(alg, sp)
	e.tuner.record(sp.op, alg, sp.total(), out.MaxEnd()-start)
	e.mu.Unlock()
	return out
}

// pick resolves the policy to an algorithm for this spec.
func (e *Engine) pick(sp spec) string {
	switch e.policy {
	case "", "auto":
	case AlgAnalytic:
		return AlgAnalytic
	default:
		if scheduleFor(e.policy, sp.op) != nil {
			return e.policy
		}
		// Forced algorithm does not implement this op: autotune instead.
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tuner.pick(e, sp)
}

// predictSeed dry-runs an algorithm's schedule from uniform clocks and
// returns its cost-model makespan. Called with e.mu held (memoized).
func (e *Engine) predictSeed(alg string, sp spec) float64 {
	key := seedKey{op: sp.op, alg: alg, sizes: sizesHash(sp.sizes)}
	if v, ok := e.tuner.seeds[key]; ok {
		return v
	}
	s := e.newSim(sp.op, alg, make([]float64, e.topo.P))
	s.dropEvents = true // dry run: nobody reads the trace
	scheduleFor(alg, sp.op)(s, sp)
	v := maxOf(s.clock)
	s.release()
	if len(e.tuner.seeds) < seedCacheCap {
		e.tuner.seeds[key] = v
	}
	return v
}

// Predict returns the autotuner's current choice and predicted simulated
// seconds for a collective with the given spec — the engine's "cost-model
// table" view, also used to seed perfmodel lookup tables.
func (e *Engine) predict(sp spec) (string, float64) {
	if e.topo.P == 1 || sp.total() == 0 {
		return "trivial", 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	best, bestT := "", 0.0
	for _, alg := range e.Algorithms(sp.op) {
		t := e.tuner.estimate(e, alg, sp)
		if best == "" || t < bestT {
			best, bestT = alg, t
		}
	}
	return best, bestT
}

// PredictAllGather returns the best algorithm and predicted seconds for an
// all-gather where every rank contributes chunkBytes.
func (e *Engine) PredictAllGather(chunkBytes int) (string, float64) {
	sizes := make([]int, e.topo.P)
	for i := range sizes {
		sizes[i] = chunkBytes
	}
	return e.predict(spec{op: OpAllGather, sizes: sizes})
}

// PredictAllReduce returns the best algorithm and predicted seconds for an
// all-reduce of nBytes.
func (e *Engine) PredictAllReduce(nBytes int) (string, float64) {
	return e.predict(spec{op: OpAllReduce, sizes: []int{nBytes}})
}

// CostTable returns the predicted simulated seconds of every step-level
// algorithm for an op across the given total wire sizes — the seeded
// cost-model table the autotuner starts from, in menu order.
func (e *Engine) CostTable(op string, totals []int) map[string][]float64 {
	out := make(map[string][]float64)
	for _, alg := range e.Algorithms(op) {
		row := make([]float64, len(totals))
		for i, n := range totals {
			sp := e.uniformSpec(op, n)
			e.mu.Lock()
			row[i] = e.predictSeed(alg, sp)
			e.mu.Unlock()
		}
		out[alg] = row
	}
	return out
}

// uniformSpec builds a spec with n total bytes spread evenly across ranks
// (for per-rank-size ops) for prediction purposes.
func (e *Engine) uniformSpec(op string, n int) spec {
	switch op {
	case OpAllGather:
		sizes := make([]int, e.topo.P)
		per := n / e.topo.P
		for i := range sizes {
			sizes[i] = per
		}
		return spec{op: op, sizes: sizes}
	case OpReduceScatter:
		return spec{op: op, sizes: splitBytes(n, e.topo.P)}
	default:
		return spec{op: op, sizes: []int{n}}
	}
}

// AllGather executes an all-gather of the per-rank payloads (starting at
// the per-rank arrival times) and returns the payloads in rank order plus
// the outcome. The returned slice aliases the inputs.
func (e *Engine) AllGather(payloads [][]byte, starts []float64) ([][]byte, *Outcome) {
	if len(payloads) != e.topo.P {
		panic(fmt.Sprintf("collective: AllGather with %d payloads, world %d", len(payloads), e.topo.P))
	}
	sizes := make([]int, len(payloads))
	for i, p := range payloads {
		sizes[i] = len(p)
	}
	out := e.dispatch(spec{op: OpAllGather, sizes: sizes}, starts)
	return payloads, out
}

// AllReduce sums the per-rank vectors element-wise — contributions are
// accumulated in rank order, so the result is bit-identical on every rank
// and across algorithms — charging 4·len bytes on the wire (FP32, matching
// the repo's wire convention).
func (e *Engine) AllReduce(vecs [][]float64, starts []float64) ([]float64, *Outcome) {
	sum := e.rankOrderSum(vecs, OpAllReduce)
	out := e.dispatch(spec{op: OpAllReduce, sizes: []int{4 * len(sum)}}, starts)
	return sum, out
}

// ShardRange returns rank r's elements [lo, hi) of an n-element
// reduce-scatter over p ranks: contiguous n/p-element shards, the last rank
// absorbing the remainder.
func ShardRange(n, p, r int) (lo, hi int) {
	shard := n / p
	lo, hi = r*shard, (r+1)*shard
	if r == p-1 {
		hi = n
	}
	return lo, hi
}

// ReduceScatter sums the per-rank vectors and splits the result into the
// ShardRange shards.
func (e *Engine) ReduceScatter(vecs [][]float64, starts []float64) ([][]float64, *Outcome) {
	sum := e.rankOrderSum(vecs, OpReduceScatter)
	p := e.topo.P
	sizes := make([]int, p)
	shards := make([][]float64, p)
	for r := 0; r < p; r++ {
		lo, hi := ShardRange(len(sum), p, r)
		shards[r] = sum[lo:hi]
		sizes[r] = 4 * (hi - lo)
	}
	out := e.dispatch(spec{op: OpReduceScatter, sizes: sizes}, starts)
	return shards, out
}

// Broadcast delivers slots[root] to every rank.
func (e *Engine) Broadcast(slots [][]byte, root int, starts []float64) ([]byte, *Outcome) {
	if root < 0 || root >= e.topo.P {
		panic(fmt.Sprintf("collective: Broadcast root %d, world %d", root, e.topo.P))
	}
	data := slots[root]
	out := e.dispatch(spec{op: OpBroadcast, sizes: []int{len(data)}, root: root}, starts)
	return data, out
}

// Exec schedules one collective without moving any payload bytes — the
// discrete-event (SimOnly) entry point. sizes follows the spec
// convention of the payload-carrying calls: per-rank contribution bytes
// for allgather, per-rank shard bytes for reducescatter, and a single
// total wire size for allreduce and broadcast. starts holds each rank's
// arrival time. The returned Outcome is exactly what the corresponding
// payload call would have produced (same algorithm pick, same autotuner
// feedback, same per-rank end times), which is what makes the event
// engine bit-identical to the goroutine engine.
func (e *Engine) Exec(op string, sizes []int, root int, starts []float64) *Outcome {
	if len(starts) != e.topo.P {
		panic(fmt.Sprintf("collective: Exec with %d starts, world %d", len(starts), e.topo.P))
	}
	switch op {
	case OpAllGather, OpReduceScatter:
		if len(sizes) != e.topo.P {
			panic(fmt.Sprintf("collective: Exec %s with %d sizes, world %d", op, len(sizes), e.topo.P))
		}
	case OpAllReduce:
		if len(sizes) != 1 {
			panic(fmt.Sprintf("collective: Exec %s wants one total size, got %d", op, len(sizes)))
		}
	case OpBroadcast:
		if len(sizes) != 1 {
			panic(fmt.Sprintf("collective: Exec %s wants one total size, got %d", op, len(sizes)))
		}
		if root < 0 || root >= e.topo.P {
			panic(fmt.Sprintf("collective: Exec broadcast root %d, world %d", root, e.topo.P))
		}
	default:
		panic(fmt.Sprintf("collective: Exec unknown op %q", op))
	}
	for _, s := range sizes {
		if s < 0 {
			panic(fmt.Sprintf("collective: Exec %s with negative size %d", op, s))
		}
	}
	return e.dispatch(spec{op: op, sizes: sizes, root: root}, starts)
}

// rankOrderSum adds the vectors in rank order, panicking on length
// mismatches (an SPMD programming error).
func (e *Engine) rankOrderSum(vecs [][]float64, op string) []float64 {
	if len(vecs) != e.topo.P {
		panic(fmt.Sprintf("collective: %s with %d vectors, world %d", op, len(vecs), e.topo.P))
	}
	sum := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		if len(v) != len(sum) {
			panic(fmt.Sprintf("collective: %s length mismatch %d vs %d", op, len(v), len(sum)))
		}
		for i, x := range v {
			sum[i] += x
		}
	}
	return sum
}

// TunerSnapshot reports the autotuner's measured state for inspection:
// one line per (op, algorithm, size bucket) with the refined estimate.
func (e *Engine) TunerSnapshot() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var lines []string
	for k, m := range e.tuner.measured {
		lines = append(lines, fmt.Sprintf("%s/%s bucket=2^%d n=%d est=%.3es",
			k.op, k.alg, k.bucket, m.count, m.value))
	}
	sort.Strings(lines)
	return lines
}
