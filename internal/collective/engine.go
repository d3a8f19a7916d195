package collective

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"compso/internal/pool"
)

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
// collective and message size) or a forced algorithm name (which falls
// back to autotuning for ops it does not implement).
func Policies() []string {
	return []string{"", "auto", AlgRing, AlgRecursiveDoubling, AlgBinomial, AlgHierarchical}
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
// rule (see Policies).
func NewEngine(topo *Topology, policy string) (*Engine, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if !ValidPolicy(policy) {
		return nil, fmt.Errorf("collective: unknown policy %q (have %v)", policy, Policies())
	}
	node := make([]int32, topo.P)
	for r := range node {
		node[r] = int32(topo.Node(r))
	}
	return &Engine{topo: topo, node: node, policy: policy, tuner: newAutotuner()}, nil
}

// Topology returns the engine's platform model.
func (e *Engine) Topology() *Topology { return e.topo }

// SetPerturber installs a link perturber (nil removes it). Install before
// the engine starts executing collectives; the stepped schedules consult
// it, while prediction dry runs stay fault-free so the tuner's seeds — and
// the guard's divergence baseline — describe the healthy fabric.
func (e *Engine) SetPerturber(p LinkPerturber) {
	e.mu.Lock()
	e.pert = p
	e.mu.Unlock()
}

// SetEventRetention enables or disables per-transfer event retention in
// executed schedules (on by default). Both time engines turn it off unless
// a recorder's transfer spans want the events: a flat ring at P=8192
// schedules ~67M transfers per collective, and retaining them would
// dominate memory for traces nobody reads.
// Timing is bit-identical either way — events only record, never steer.
// Call before the engine starts executing collectives.
func (e *Engine) SetEventRetention(on bool) { e.dropEvents = !on }

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

// Algorithms returns the step-level algorithm menu for an op.
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

// dispatch picks an algorithm for the spec and executes its schedule.
func (e *Engine) dispatch(sp spec, starts []float64) *Outcome {
	start := maxOf(starts)
	// Trivial cases are free, but still a sync point at the last arrival.
	if e.topo.P == 1 || sp.total() == 0 {
		ends := make([]float64, e.topo.P)
		for i := range ends {
			ends[i] = start
		}
		return &Outcome{Op: sp.op, Algorithm: "trivial", Bytes: sp.total(), Start: start, Ends: ends}
	}
	alg := e.pick(sp)
	key := seedKey{op: sp.op, alg: alg, sizes: sizesHash(sp.sizes)}
	e.mu.Lock()
	predicted, memo := e.tuner.seeds[key]
	pert := e.pert
	e.mu.Unlock()
	out := &Outcome{Op: sp.op, Algorithm: alg, Bytes: sp.total(), Start: start, Predicted: predicted}
	if memo {
		e.execute(out, sp, starts, pert)
	} else {
		// The executed schedule and the prediction's dry run share no
		// state, so an idle helper takes the dry run; with none, the
		// caller runs both in this order.
		pool.ParallelFor(2, 2, func(i int) {
			if i == 0 {
				e.execute(out, sp, starts, pert)
			} else {
				out.Predicted = e.dryRun(alg, sp)
			}
		})
	}
	e.mu.Lock()
	if !memo {
		e.memoSeed(key, out.Predicted)
	}
	e.tuner.record(sp.op, alg, sp.total(), out.MaxEnd()-start)
	e.mu.Unlock()
	return out
}

// execute runs out.Algorithm's schedule for sp from the arrival times
// starts under the perturber pert and sets out's Ends and Events.
func (e *Engine) execute(out *Outcome, sp spec, starts []float64, pert LinkPerturber) {
	clock := make([]float64, e.topo.P)
	copy(clock, starts)
	s := e.newSim(sp.op, out.Algorithm, clock)
	s.pert, s.dropEvents = pert, e.dropEvents
	scheduleFor(out.Algorithm, sp.op)(s, sp)
	out.Ends, out.Events = s.clock, s.events
	s.release()
}

// pick resolves the policy to an algorithm for this spec.
func (e *Engine) pick(sp spec) string {
	switch e.policy {
	case "", "auto":
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
	v := e.dryRun(alg, sp)
	e.memoSeed(key, v)
	return v
}

// memoSeed keeps a dry run's makespan while the memo has room. Called with
// e.mu held.
func (e *Engine) memoSeed(key seedKey, v float64) {
	if len(e.tuner.seeds) < seedCacheCap {
		e.tuner.seeds[key] = v
	}
}

// dryRun runs alg's schedule for sp from zero clocks, fault-free and
// untraced, and returns its makespan. It reads only the engine's fixed
// topology, so it needs no lock, and its clock comes from the pool and
// goes back to it.
func (e *Engine) dryRun(alg string, sp spec) float64 {
	clock := pool.F64(e.topo.P)
	clear(clock)
	s := e.newSim(sp.op, alg, clock)
	s.dropEvents = true // nobody reads the trace
	scheduleFor(alg, sp.op)(s, sp)
	v := maxOf(s.clock)
	s.release()
	pool.PutF64(clock)
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

// AllReduce sums the per-rank vectors element-wise into dst's storage
// (grown when it is too small) and returns the sum — contributions are
// accumulated from +0 in rank order, so the result is bit-identical on
// every rank and across algorithms — charging 4·len bytes on the wire
// (FP32, matching the repo's wire convention). dst must not alias a vector.
func (e *Engine) AllReduce(dst []float64, vecs [][]float64, starts []float64) ([]float64, *Outcome) {
	sum := e.rankOrderSum(dst, vecs, OpAllReduce)
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

// ReduceScatter sums the per-rank vectors into fresh storage, since the
// shards outlive the call, and splits the result into the ShardRange
// shards.
func (e *Engine) ReduceScatter(vecs [][]float64, starts []float64) ([][]float64, *Outcome) {
	sum := e.rankOrderSum(nil, vecs, OpReduceScatter)
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

// rankOrderSum adds the vectors from +0 in rank order into dst's storage,
// grown when it is too small, and returns the sum, panicking on length
// mismatches (an SPMD programming error).
func (e *Engine) rankOrderSum(dst []float64, vecs [][]float64, op string) []float64 {
	if len(vecs) != e.topo.P {
		panic(fmt.Sprintf("collective: %s with %d vectors, world %d", op, len(vecs), e.topo.P))
	}
	sum := slices.Grow(dst[:0], len(vecs[0]))[:len(vecs[0])]
	clear(sum)
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
