package collective

import "testing"

func TestAutotunerPrefersHierarchicalInterNode(t *testing.T) {
	// On Platform1-like parameters the hierarchical schedules dominate
	// ring/binomial for multi-node all-reduce across sizes (fewer NIC
	// crossings and α terms), so the seeded table must select them.
	e := forcedEngine(t, 16, "")
	for _, bytes := range []int{1 << 12, 1 << 18, 1 << 24} {
		alg, sec := e.PredictAllReduce(bytes)
		if alg != AlgHierarchical {
			t.Errorf("allreduce %d bytes: picked %s", bytes, alg)
		}
		if sec <= 0 {
			t.Errorf("allreduce %d bytes: predicted %g", bytes, sec)
		}
	}
	// Small inter-node all-gathers are latency-bound: a log-step or
	// two-level schedule must beat the (P−1)-step flat ring.
	alg, _ := e.PredictAllGather(256)
	if alg == AlgRing {
		t.Errorf("small all-gather picked the flat ring")
	}
}

func TestAutotunerRefinementOverridesSeed(t *testing.T) {
	e := forcedEngine(t, 8, "")
	sp := e.uniformSpec(OpAllReduce, 1<<20)
	e.mu.Lock()
	seedRing := e.predictSeed(AlgRing, sp)
	seedHier := e.predictSeed(AlgHierarchical, sp)
	e.mu.Unlock()
	if seedHier >= seedRing {
		t.Fatalf("precondition: hierarchical seed %g not below ring %g", seedHier, seedRing)
	}
	// Feed measurements claiming hierarchical is terribly slow at this
	// bucket; the tuner must switch to ring.
	e.mu.Lock()
	for i := 0; i < 50; i++ {
		e.tuner.record(OpAllReduce, AlgHierarchical, 1<<20, seedRing*10)
	}
	alg := e.tuner.pick(e, sp)
	e.mu.Unlock()
	if alg != AlgRing {
		t.Fatalf("tuner did not react to measurements: picked %s", alg)
	}
	// Other size buckets are unaffected.
	e.mu.Lock()
	other := e.tuner.pick(e, e.uniformSpec(OpAllReduce, 1<<10))
	e.mu.Unlock()
	if other != AlgHierarchical {
		t.Fatalf("unrelated bucket switched to %s", other)
	}
}

func TestAutotunerExecutionRecordsMeasurements(t *testing.T) {
	e := forcedEngine(t, 8, "")
	vecs := mkVecs(8, 1024)
	for i := 0; i < 3; i++ {
		e.AllReduce(vecs, make([]float64, 8))
	}
	lines := e.TunerSnapshot()
	if len(lines) == 0 {
		t.Fatal("no tuner state after executions")
	}
}

func TestCostTableCoversMenu(t *testing.T) {
	e := forcedEngine(t, 8, "")
	totals := []int{1 << 10, 1 << 16, 1 << 22}
	table := e.CostTable(OpAllGather, totals)
	if len(table) != len(e.Algorithms(OpAllGather)) {
		t.Fatalf("cost table has %d algorithms", len(table))
	}
	for alg, row := range table {
		if len(row) != len(totals) {
			t.Fatalf("%s row has %d entries", alg, len(row))
		}
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				t.Fatalf("%s cost not increasing in size: %v", alg, row)
			}
		}
	}
}

func TestForcedPolicyFallsBackForUnimplementedOp(t *testing.T) {
	// "binomial" only implements broadcast; other ops must autotune
	// rather than fail.
	e := forcedEngine(t, 8, AlgBinomial)
	_, out := e.AllReduce(mkVecs(8, 16), make([]float64, 8))
	if out.Algorithm == AlgBinomial || out.Algorithm == "" {
		t.Fatalf("allreduce dispatched to %q", out.Algorithm)
	}
	slots := make([][]byte, 8)
	slots[0] = []byte("x")
	_, bout := e.Broadcast(slots, 0, make([]float64, 8))
	if bout.Algorithm != AlgBinomial {
		t.Fatalf("broadcast dispatched to %q", bout.Algorithm)
	}
}

// TestPredictedIgnoresEarlierSizeVectors: Outcome.Predicted is the dry run
// of the same algorithm and spec, so two all-gathers (or reduce-scatters)
// of equal total and different per-rank sizes must not share one — each
// reports what a fresh engine gives, whichever ran first.
func TestPredictedIgnoresEarlierSizeVectors(t *testing.T) {
	const p = 16
	uniform, ragged := make([]int, p), make([]int, p)
	for r := range uniform {
		uniform[r] = 4096
	}
	ragged[3], ragged[12] = 4096*(p-1), 4096
	starts := make([]float64, p)
	for _, op := range []string{OpAllGather, OpReduceScatter} {
		for _, alg := range []string{AlgRing, AlgHierarchical} {
			fresh := func(sizes []int) float64 {
				return forcedEngine(t, p, alg).Exec(op, sizes, 0, starts).Predicted
			}
			wantU, wantR := fresh(uniform), fresh(ragged)
			if wantU == wantR {
				t.Fatalf("%s/%s: the two size vectors predict the same %g; the test needs them apart", op, alg, wantU)
			}
			e := forcedEngine(t, p, alg)
			for _, c := range []struct {
				sizes []int
				want  float64
			}{{uniform, wantU}, {ragged, wantR}, {uniform, wantU}} {
				if got := e.Exec(op, c.sizes, 0, starts).Predicted; got != c.want {
					t.Errorf("%s/%s: Predicted %g on a used engine, %g on a fresh one", op, alg, got, c.want)
				}
			}
		}
	}
}
