package train

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/fault"
	"compso/internal/kfac"
	"compso/internal/obs"
	"compso/internal/pool"
)

func TestFuseBuckets(t *testing.T) {
	cases := []struct {
		sizes []int
		limit int // bytes
		want  []bucket
	}{
		{nil, 100, nil},
		{[]int{10, 20, 30}, 4 * 100, []bucket{{0, 3, 60}}},
		{[]int{10, 20, 30}, 4 * 30, []bucket{{0, 2, 30}, {2, 3, 30}}},
		// An oversize tensor gets its own bucket, never split.
		{[]int{100, 5, 5}, 4 * 10, []bucket{{0, 1, 100}, {1, 3, 10}}},
		// A non-positive limit degrades to one tensor per bucket.
		{[]int{3, 4}, 0, []bucket{{0, 1, 3}, {1, 2, 4}}},
	}
	for _, c := range cases {
		got := fuseBuckets(c.sizes, c.limit)
		if len(got) != len(c.want) {
			t.Fatalf("fuseBuckets(%v, %d) = %v, want %v", c.sizes, c.limit, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("fuseBuckets(%v, %d)[%d] = %v, want %v", c.sizes, c.limit, i, got[i], c.want[i])
			}
		}
	}
	// Buckets must partition the tensor list in order.
	sizes := []int{7, 1, 9, 2, 8, 3}
	next := 0
	for _, b := range fuseBuckets(sizes, 4*10) {
		if b.start != next {
			t.Fatalf("bucket %v does not continue at %d", b, next)
		}
		elems := 0
		for _, n := range sizes[b.start:b.end] {
			elems += n
		}
		if elems != b.elems {
			t.Fatalf("bucket %v counts %d elems", b, elems)
		}
		next = b.end
	}
	if next != len(sizes) {
		t.Fatalf("buckets cover %d of %d tensors", next, len(sizes))
	}
}

// TestSplitFramesEmptyPart pins the worldSize > nLayers framing contract —
// a rank that owns no layers sends zero groups, and the frame reader must
// accept its empty payload without flagging corruption — and the reader's
// prefix-then-error contract: what arrived intact comes back with the
// error.
func TestSplitFramesEmptyPart(t *testing.T) {
	blobs, err := readFrames(nil, 0, 7)
	if err != nil {
		t.Fatalf("empty part with zero groups rejected: %v", err)
	}
	if len(blobs) != 0 {
		t.Fatalf("empty part produced %d blobs", len(blobs))
	}
	if _, err := readFrames([]byte{1, 2, 3}, 0, 7); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("trailing bytes with zero groups: err = %v, want ErrCorrupt", err)
	}
	if _, err := readFrames(nil, 1, 7); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("empty part with one expected group: err = %v, want ErrCorrupt", err)
	}

	first := appendFrame(nil, []byte("abc"))
	for name, c := range map[string]struct {
		part []byte
		n    int
	}{
		// 2^64−1: in range as a uint64, negative once cast to int.
		"length varint overflowing int": {binary.AppendUvarint(first, math.MaxUint64), 2},
		"trailing bytes":                {append(first[:len(first):len(first)], 9, 9), 1},
	} {
		blobs, err := readFrames(c.part, c.n, 7)
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if len(blobs) != 1 || string(blobs[0]) != "abc" {
			t.Fatalf("%s: intact prefix = %q, want the first frame", name, blobs)
		}
	}
}

// TestParseGroupsEmptyOwnership: receiving from a rank with no groups (an
// empty-ownership rank, or a short rank's empty exchange round) accepts
// only an empty part, and installs nothing.
func TestParseGroupsEmptyOwnership(t *testing.T) {
	rx := gatherRx{
		frames: func(sender int, part []byte) ([][]byte, error) { return readFrames(part, 0, sender) },
		install: func(sender, frame int, vals []float32) error {
			t.Fatalf("installed frame %d from empty-ownership rank %d", frame, sender)
			return nil
		},
	}
	if err := rx.receive([][]byte{nil}); err != nil {
		t.Fatalf("empty part from an empty-ownership rank rejected: %v", err)
	}
	err := rx.receive([][]byte{{0, 1}})
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("non-empty part from an empty-ownership rank: err = %v, want ErrCorrupt", err)
	}
}

// timingPlan injects stragglers and degraded links but never touches
// payload bytes. The overlap scheduler re-frames the exchange into rounds,
// so corruption draws (position mod payload length, per-round retry
// ladders) cannot match the sequential path blob-for-blob — but a
// timing-only plan must leave the numerics bit-identical on both paths.
func timingPlan() *fault.Plan {
	return &fault.Plan{
		Seed:       17,
		Stragglers: []fault.Straggler{{Rank: 1, Factor: 2, FromStep: 1}},
		Links: []fault.LinkFault{{
			SrcNode: -1, DstNode: -1, Link: "inter",
			AlphaFactor: 2, BetaFactor: 1.5, Jitter: 0.1,
		}},
	}
}

// overlapCells is the bit-identity matrix: optimizer × compressor family.
func overlapCells() []struct {
	name string
	mut  func(*Config)
} {
	compsoFactory := func(rank int) compress.Compressor {
		return compso.NewCompressor(nil, rank, 99)
	}
	return []struct {
		name string
		mut  func(*Config)
	}{
		{"sgd-plain", func(c *Config) {}},
		{"sgd-compso", func(c *Config) { c.NewCompressor = compsoFactory }},
		{"sgd-powersgd", func(c *Config) { c.NewCompressor = powerSGDFactory(false) }},
		{"kfac-plain", func(c *Config) {
			c.UseKFAC = true
			c.KFAC = kfac.DefaultConfig()
		}},
		{"kfac-compso", func(c *Config) {
			c.UseKFAC = true
			c.KFAC = kfac.DefaultConfig()
			c.NewCompressor = compsoFactory
			c.AggregationM = 2
		}},
	}
}

// compressSpanKeys canonicalizes a snapshot's compress/decompress spans
// into a sorted multiset of (name, label, bytes-in, bytes-out): the
// overlap scheduler may shift when a kernel runs, never what it processes.
func compressSpanKeys(s obs.Snapshot) []string {
	var keys []string
	for _, sp := range s.SpansFor(obs.CatCompress) {
		keys = append(keys, fmt.Sprintf("%s|%s|%d|%d", sp.Name, sp.Attrs.Label, sp.Attrs.BytesIn, sp.Attrs.BytesOut))
	}
	sort.Strings(keys)
	return keys
}

// TestOverlapBitIdentityMatrix is the scheduler's core contract: for every
// optimizer × compressor cell, with and without (timing-only) fault
// injection, the overlapped run must reproduce the sequential run's
// numerics bit for bit — losses, accuracies, compression ratio — and push
// the exact same bytes through the wire and the compression kernels. Only
// the simulated schedule may move.
func TestOverlapBitIdentityMatrix(t *testing.T) {
	t.Parallel()
	for _, cell := range overlapCells() {
		// Memoized: TestScheduleFingerprint pins these same runs.
		run := func(overlap bool, plan *fault.Plan) (*Result, obs.Snapshot) {
			res := matrixRun(t, cell.name, cell.mut, overlap, plan)
			return res, *res.Metrics
		}
		for _, plan := range []*fault.Plan{nil, timingPlan()} {
			name := cell.name
			if plan != nil {
				name += "+faults"
			}
			off, sOff := run(false, plan)
			on, sOn := run(true, plan)

			if off.FinalLoss != on.FinalLoss || off.FinalAcc != on.FinalAcc {
				t.Fatalf("%s: final metrics differ: %v/%v vs %v/%v",
					name, off.FinalLoss, off.FinalAcc, on.FinalLoss, on.FinalAcc)
			}
			if off.MeanCR != on.MeanCR {
				t.Fatalf("%s: MeanCR differs: %v vs %v", name, off.MeanCR, on.MeanCR)
			}
			if len(off.Losses) != len(on.Losses) {
				t.Fatalf("%s: eval counts differ: %d vs %d", name, len(off.Losses), len(on.Losses))
			}
			for i := range off.Losses {
				if off.Losses[i] != on.Losses[i] {
					t.Fatalf("%s: loss %d differs: %v vs %v", name, i, off.Losses[i], on.Losses[i])
				}
			}
			for i := range off.Accuracies {
				if off.Accuracies[i] != on.Accuracies[i] {
					t.Fatalf("%s: accuracy %d differs: %v vs %v", name, i, off.Accuracies[i], on.Accuracies[i])
				}
			}
			// Wire-byte totals are invariant under bucketing and rounds
			// (Outcome.Bytes sums payload sizes, which the scheduler only
			// re-partitions).
			for k, v := range sOff.Counters {
				if !strings.HasPrefix(k, "wire/") {
					continue
				}
				if sOn.Counters[k] != v {
					t.Fatalf("%s: counter %s differs: %v vs %v", name, k, v, sOn.Counters[k])
				}
			}
			kOff, kOn := compressSpanKeys(sOff), compressSpanKeys(sOn)
			if len(kOff) != len(kOn) {
				t.Fatalf("%s: compress span counts differ: %d vs %d", name, len(kOff), len(kOn))
			}
			for i := range kOff {
				if kOff[i] != kOn[i] {
					t.Fatalf("%s: compress span %d differs: %s vs %s", name, i, kOff[i], kOn[i])
				}
			}
		}
	}
}

// TestOverlapMoreWorkersThanLayers is the worldSize > nLayers regression:
// 9 workers over a 4-layer model leave five ranks with no owned layers —
// every exchange round they contribute empty payloads that the framing
// layer must accept — and the overlapped run must still match the
// sequential one bit for bit.
func TestOverlapMoreWorkersThanLayers(t *testing.T) {
	t.Parallel()
	for _, compressed := range []bool{false, true} {
		run := func(overlap bool) *Result {
			cfg := baseConfig(6)
			cfg.Workers = 9
			cfg.UseKFAC = true
			cfg.KFAC = kfac.DefaultConfig()
			if compressed {
				cfg.NewCompressor = func(rank int) compress.Compressor {
					return compso.NewCompressor(nil, rank, 66)
				}
				cfg.AggregationM = 2
			}
			cfg.Overlap = overlap
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("compressed=%v overlap=%v: %v", compressed, overlap, err)
			}
			return res
		}
		off, on := run(false), run(true)
		if off.FinalLoss != on.FinalLoss {
			t.Fatalf("compressed=%v: final loss differs: %v vs %v", compressed, off.FinalLoss, on.FinalLoss)
		}
		for i := range off.Losses {
			if off.Losses[i] != on.Losses[i] {
				t.Fatalf("compressed=%v: loss %d differs: %v vs %v", compressed, i, off.Losses[i], on.Losses[i])
			}
		}
		if off.MeanCR != on.MeanCR {
			t.Fatalf("compressed=%v: MeanCR differs: %v vs %v", compressed, off.MeanCR, on.MeanCR)
		}
	}
}

// TestOverlapChaosUnderPoolDebug locks in the pooled-payload audit: with
// the pool's use-after-Put tracker armed (COMPSO_POOL_DEBUG's SetDebug),
// corruption-heavy chaos plans must drive the full retry + lossless-
// fallback ladder — whose recovery broadcasts re-send sender-side payloads
// long after the step that built them — on both the sequential and the
// overlapped path without any arena buffer crossing a collective boundary.
func TestOverlapChaosUnderPoolDebug(t *testing.T) {
	defer pool.SetDebug(pool.DebugEnabled())
	pool.SetDebug(true)

	for _, overlap := range []bool{false, true} {
		cfg := faultedConfig(6, obs.NewRecorder())
		cfg.Overlap = overlap
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
			t.Fatalf("overlap=%v: non-finite final loss %v", overlap, res.FinalLoss)
		}
		if res.FaultEvents["fallbacks"] == 0 {
			t.Fatalf("overlap=%v: recovery ladder not exercised: %v", overlap, res.FaultEvents)
		}
	}

	// The compressed first-order path's ladder, for completeness.
	cfg := baseConfig(6)
	cfg.Overlap = true
	cfg.NewCompressor = func(rank int) compress.Compressor {
		return compress.NewCOMPSO(int64(rank) + 1)
	}
	cfg.Fault = &fault.Plan{
		Seed:       4,
		Corruption: fault.Corruption{Rate: 1, BitFlips: 5},
		MaxRetries: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents["fallbacks"] == 0 {
		t.Fatalf("SGD ladder not exercised under overlap: %v", res.FaultEvents)
	}
}

// TestOverlapDeterministicUnderCorruption: corruption draws differ between
// the sequential and overlapped framings, so on/off equality is out of
// scope — but repeat overlapped runs must still be bit-identical.
func TestOverlapDeterministicUnderCorruption(t *testing.T) {
	t.Parallel()
	run := func() *Result {
		cfg := faultedConfig(6, obs.NewRecorder())
		cfg.Overlap = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinalLoss != b.FinalLoss {
		t.Fatalf("overlapped faulted run not deterministic: %v vs %v", a.FinalLoss, b.FinalLoss)
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("loss %d differs: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
	for k, v := range a.FaultEvents {
		if b.FaultEvents[k] != v {
			t.Fatalf("FaultEvents[%s] differs: %d vs %d", k, v, b.FaultEvents[k])
		}
	}
}

// TestOverlapHidesCommunication: the point of the scheduler. The hidden-
// communication gauge (1 − exposed/total collective time) must be exactly
// zero sequentially and rise when overlap is on, and the span-side phase
// decomposition must show busy time recorded under the overlap phases.
func TestOverlapHidesCommunication(t *testing.T) {
	t.Parallel()
	run := func(overlap bool) (*Result, obs.Snapshot) {
		cfg := baseConfig(10)
		cfg.UseKFAC = true
		cfg.KFAC = kfac.DefaultConfig()
		cfg.Overlap = overlap
		cfg.Obs = obs.NewRecorder()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, *res.Metrics
	}
	_, sOff := run(false)
	_, sOn := run(true)
	gOff := sOff.Gauges["overlap/hidden_comm_fraction"]
	gOn := sOn.Gauges["overlap/hidden_comm_fraction"]
	if gOff != 0 {
		t.Fatalf("sequential hidden-comm fraction %v, want exactly 0", gOff)
	}
	if gOn <= gOff {
		t.Fatalf("overlap did not raise the hidden-comm fraction: on=%v off=%v", gOn, gOff)
	}
	if gOn <= 0 || gOn > 1 {
		t.Fatalf("hidden-comm fraction %v out of range", gOn)
	}
	pe := sOn.PhaseEfficiencies()
	byName := map[string]obs.PhaseEfficiency{}
	for _, p := range pe {
		byName[p.Phase] = p
		if p.SpanSeconds < 0 || p.BusySeconds < 0 || p.IdleSeconds < 0 {
			t.Fatalf("negative phase efficiency %+v", p)
		}
	}
	// Launch-only and fully-hidden phases can legitimately be zero-width
	// in simulated time; the compute-bearing phases cannot.
	for _, want := range []string{"grad-launch", "eigendecomp", "grad-install", "precond-exchange"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("phase %q missing from efficiencies: %v", want, pe)
		}
	}
	for _, want := range []string{"eigendecomp", "precond-exchange"} {
		if byName[want].SpanSeconds <= 0 {
			t.Fatalf("phase %q has no wall time: %+v", want, byName[want])
		}
	}
	if byName["eigendecomp"].BusySeconds <= 0 {
		t.Fatalf("eigendecomp recorded no busy time: %+v", byName["eigendecomp"])
	}
}

// TestOverlapSpanReconciliation: span sums and the cluster's AlgSeconds
// attribution must still reconcile under overlap — waits record exactly
// the exposed interval they charge, hidden waits record zero-length spans.
func TestOverlapSpanReconciliation(t *testing.T) {
	cfg := baseConfig(8)
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.NewCompressor = func(rank int) compress.Compressor {
		return compso.NewCompressor(nil, rank, 12)
	}
	cfg.AggregationM = 2
	cfg.Overlap = true
	cfg.Obs = obs.NewRecorder()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perWorker := map[string]float64{}
	for k, v := range res.Metrics.AlgSeconds() {
		perWorker[k] = v / float64(cfg.Workers)
	}
	if err := obs.ReconcileAlgSeconds(perWorker, res.AlgSeconds, 0.01); err != nil {
		t.Fatalf("span/AlgSeconds reconciliation under overlap: %v", err)
	}
}
