package cluster

import (
	"fmt"
	"maps"
	"math"
	"sync/atomic"
	"testing"
)

func tinyConfig() Config {
	return Config{Name: "test", GPUsPerNode: 2, IntraBW: 1e9, InterBW: 1e8,
		IntraLatency: 1e-6, InterLatency: 1e-5}
}

func TestPlatformConfigsValid(t *testing.T) {
	for _, cfg := range []Config{Platform1(), Platform2()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	if Platform2().InterBW <= Platform1().InterBW {
		t.Fatal("Platform2 should have more inter-node bandwidth")
	}
}

func TestEffectiveBandwidthHierarchy(t *testing.T) {
	cfg := tinyConfig()
	if got := cfg.EffectiveBandwidth(2); got != cfg.IntraBW {
		t.Fatalf("intra-node BW = %g, want %g", got, cfg.IntraBW)
	}
	if got := cfg.EffectiveBandwidth(4); got != cfg.InterBW/2 {
		t.Fatalf("inter-node BW = %g, want %g", got, cfg.InterBW/2)
	}
}

func TestCollectiveCostsScale(t *testing.T) {
	cfg := Platform1()
	// More bytes → more time; more workers → more time (for fixed chunk).
	if cfg.AllReduceTime(1<<20, 8) >= cfg.AllReduceTime(1<<24, 8) {
		t.Fatal("AllReduceTime not increasing in bytes")
	}
	if cfg.AllGatherTime(1<<20, 8) >= cfg.AllGatherTime(1<<20, 64) {
		t.Fatal("AllGatherTime not increasing in workers")
	}
	if cfg.AllReduceTime(1<<20, 1) != 0 || cfg.AllGatherTime(1<<20, 1) != 0 {
		t.Fatal("single-worker collectives should be free")
	}
	// Platform2's faster network must beat Platform1 beyond one node.
	if Platform2().AllGatherTime(1<<24, 32) >= Platform1().AllGatherTime(1<<24, 32) {
		t.Fatal("Platform2 not faster than Platform1")
	}
}

func TestBroadcastLogSteps(t *testing.T) {
	cfg := tinyConfig()
	t8 := cfg.BroadcastTime(1000, 8)
	t64 := cfg.BroadcastTime(1000, 64)
	// log2(64)/log2(8) = 2 exactly under the tree model.
	if math.Abs(t64/t8-2) > 1e-9 {
		t.Fatalf("broadcast ratio = %g, want 2", t64/t8)
	}
}

func TestAllReduceSums(t *testing.T) {
	c := New(tinyConfig(), 4)
	workers := c.Run(func(w *Worker) {
		data := []float64{float64(w.Rank()), 1}
		w.AllReduce(data, "allreduce")
		if data[0] != 0+1+2+3 || data[1] != 4 {
			panic(fmt.Sprintf("rank %d: allreduce = %v", w.Rank(), data))
		}
	})
	for _, w := range workers {
		if w.Time() <= 0 {
			t.Fatalf("rank %d: no simulated time charged", w.Rank())
		}
		if w.Stats()["allreduce"] <= 0 {
			t.Fatalf("rank %d: no allreduce time", w.Rank())
		}
	}
}

func TestAllGatherOrdersByRank(t *testing.T) {
	c := New(tinyConfig(), 3)
	c.Run(func(w *Worker) {
		payload := []byte{byte(w.Rank() * 10)}
		got := w.AllGather(payload, "allgather")
		if len(got) != 3 {
			panic("wrong gather count")
		}
		for r, buf := range got {
			if len(buf) != 1 || buf[0] != byte(r*10) {
				panic(fmt.Sprintf("rank %d slot %d = %v", w.Rank(), r, buf))
			}
		}
	})
}

func TestAllGatherVariableSizes(t *testing.T) {
	c := New(tinyConfig(), 4)
	c.Run(func(w *Worker) {
		payload := make([]byte, (w.Rank()+1)*100)
		got := w.AllGather(payload, "allgather")
		for r, buf := range got {
			if len(buf) != (r+1)*100 {
				panic(fmt.Sprintf("slot %d has %d bytes", r, len(buf)))
			}
		}
	})
}

func TestBroadcastDeliversRootPayload(t *testing.T) {
	c := New(tinyConfig(), 4)
	c.Run(func(w *Worker) {
		var payload []byte
		if w.Rank() == 2 {
			payload = []byte("root-data")
		}
		got := w.Broadcast(payload, 2, "bcast")
		if string(got) != "root-data" {
			panic(fmt.Sprintf("rank %d got %q", w.Rank(), got))
		}
	})
}

func TestComputeAdvancesClock(t *testing.T) {
	c := New(tinyConfig(), 1)
	workers := c.Run(func(w *Worker) {
		w.Compute(1.5, "forward-backward")
		w.Compute(0.5, "kfac-compute")
	})
	w := workers[0]
	if w.Time() != 2.0 {
		t.Fatalf("time = %g, want 2.0", w.Time())
	}
	if w.Stats()["forward-backward"] != 1.5 {
		t.Fatalf("stats = %v", w.Stats())
	}
}

func TestStragglerDominatesCollectiveStart(t *testing.T) {
	// A collective starts when the slowest worker arrives; fast workers'
	// wait is charged to the collective's category.
	c := New(tinyConfig(), 2)
	workers := c.Run(func(w *Worker) {
		if w.Rank() == 0 {
			w.Compute(1.0, "work")
		}
		w.AllReduce([]float64{1}, "allreduce")
	})
	t0, t1 := workers[0].Time(), workers[1].Time()
	if math.Abs(t0-t1) > 1e-12 {
		t.Fatalf("clocks diverged after collective: %g vs %g", t0, t1)
	}
	if workers[1].Stats()["allreduce"] < 1.0 {
		t.Fatalf("fast worker's wait not charged: %v", workers[1].Stats())
	}
}

func TestBackToBackCollectives(t *testing.T) {
	// Stress the rendezvous drain logic with many consecutive rounds.
	c := New(tinyConfig(), 8)
	var total atomic.Int64
	c.Run(func(w *Worker) {
		for i := 0; i < 200; i++ {
			data := []float64{1}
			w.AllReduce(data, "ar")
			if data[0] != 8 {
				panic("bad sum")
			}
			total.Add(1)
		}
	})
	if total.Load() != 1600 {
		t.Fatalf("completed %d collectives, want 1600", total.Load())
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	c := New(tinyConfig(), 3)
	workers := c.Run(func(w *Worker) {
		w.Compute(float64(w.Rank()), "work")
		w.Barrier()
	})
	for _, w := range workers {
		if w.Time() != 2.0 {
			t.Fatalf("rank %d time %g, want 2.0", w.Rank(), w.Time())
		}
	}
}

func TestMergeStats(t *testing.T) {
	c := New(tinyConfig(), 2)
	workers := c.Run(func(w *Worker) {
		w.Compute(1, "a")
		w.Compute(2, "b")
	})
	merged, algs := workers[0].Ledger().Merged()
	if len(merged) != 2 || merged["a"] != 2 || merged["b"] != 4 {
		t.Fatalf("merged = %v", merged)
	}
	if len(algs) != 0 {
		t.Fatalf("merged algorithm seconds %v without a collective", algs)
	}
}

// TestRepeatedRunStartsFromZero: every Run charges a fresh ledger, so two
// Runs of one program on one cluster (forced policy, so the autotuner has
// nothing to learn between them) see the same clocks and stats, and the
// first Run's workers still read their own values afterwards.
func TestRepeatedRunStartsFromZero(t *testing.T) {
	cfg := tinyConfig()
	cfg.Collective = "ring"
	c := New(cfg, 4)
	run := func() []*Worker {
		return c.Run(func(w *Worker) {
			if w.Time() != 0 || len(w.Stats()) != 0 || len(w.AlgSeconds()) != 0 {
				panic(fmt.Sprintf("rank %d starts at %v with stats %v", w.Rank(), w.Time(), w.Stats()))
			}
			w.Compute(1e-3*float64(w.Rank()+1), "work")
			w.AllReduce(make([]float64, 512), "ar")
			w.AllGather(make([]byte, 100*(w.Rank()+1)), "ag")
		})
	}
	first := run()
	want := make([]float64, len(first))
	for r, w := range first {
		want[r] = w.Time()
	}
	second := run()
	for r := range first {
		if first[r].Time() != want[r] {
			t.Fatalf("rank %d: first run's clock moved %v -> %v", r, want[r], first[r].Time())
		}
		if first[r].Time() != second[r].Time() {
			t.Fatalf("rank %d: runs end at %v and %v", r, first[r].Time(), second[r].Time())
		}
		if a, b := first[r].Stats(), second[r].Stats(); !maps.Equal(a, b) {
			t.Fatalf("rank %d: stats %v then %v", r, a, b)
		}
		if a, b := first[r].AlgSeconds(), second[r].AlgSeconds(); !maps.Equal(a, b) {
			t.Fatalf("rank %d: AlgSeconds %v then %v", r, a, b)
		}
	}
	if first[0].Ledger().Collectives() != 2 || second[0].Ledger().Collectives() != 2 {
		t.Fatalf("collectives %d then %d, want 2 each",
			first[0].Ledger().Collectives(), second[0].Ledger().Collectives())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{}, 2)
}

func TestReduceScatterShards(t *testing.T) {
	c := New(tinyConfig(), 4)
	c.Run(func(w *Worker) {
		data := make([]float64, 10)
		for i := range data {
			data[i] = float64(i)
		}
		shard := w.ReduceScatter(data, "rs")
		// Sum across 4 workers = 4*i; rank r gets its contiguous shard.
		wantLen := 2
		if w.Rank() == 3 {
			wantLen = 4 // remainder absorbed by the last rank
		}
		if len(shard) != wantLen {
			panic(fmt.Sprintf("rank %d shard length %d", w.Rank(), len(shard)))
		}
		base := w.Rank() * 2
		for i, v := range shard {
			if v != float64(4*(base+i)) {
				panic(fmt.Sprintf("rank %d shard[%d] = %g", w.Rank(), i, v))
			}
		}
	})
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := tinyConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"valid analytic policy", func(c *Config) { c.Collective = "analytic" }, true},
		{"valid forced hierarchical", func(c *Config) { c.Collective = "hierarchical" }, true},
		{"valid auto policy", func(c *Config) { c.Collective = "auto" }, true},
		{"zero GPUs per node", func(c *Config) { c.GPUsPerNode = 0 }, false},
		{"zero intra BW", func(c *Config) { c.IntraBW = 0 }, false},
		{"zero inter BW", func(c *Config) { c.InterBW = 0 }, false},
		{"negative intra latency", func(c *Config) { c.IntraLatency = -1e-6 }, false},
		{"negative inter latency", func(c *Config) { c.InterLatency = -1e-6 }, false},
		{"negative collective launch", func(c *Config) { c.CollectiveLaunch = -1e-5 }, false},
		{"negative congestion log", func(c *Config) { c.CongestionLog = -0.25 }, false},
		{"unknown collective policy", func(c *Config) { c.Collective = "warp-speed" }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
		})
	}
}

func TestRendezvousStressMixedCollectives(t *testing.T) {
	// P workers issue many back-to-back mixed collectives; clocks must be
	// monotone and every rank must decode bit-identical data. Run under
	// -race in CI.
	const p = 8
	const rounds = 60
	c := New(tinyConfig(), p)
	c.SetTracing(true) // every rank writes its own trace ring concurrently too
	type roundData struct {
		sum     float64
		gather  string
		bcast   string
		shardOK bool
	}
	perRank := make([][]roundData, p)
	workers := c.Run(func(w *Worker) {
		log := make([]roundData, 0, rounds)
		last := w.Time()
		check := func() {
			if w.Time() < last {
				panic(fmt.Sprintf("rank %d clock went backwards: %g -> %g", w.Rank(), last, w.Time()))
			}
			last = w.Time()
		}
		for i := 0; i < rounds; i++ {
			var rd roundData

			vec := []float64{float64(w.Rank()*i) + 0.25, 1}
			w.AllReduce(vec, "ar")
			rd.sum = vec[0] + vec[1]
			check()

			payload := make([]byte, (w.Rank()*13+i)%29)
			for j := range payload {
				payload[j] = byte(w.Rank() + i + j)
			}
			parts := w.AllGather(payload, "ag")
			var cat []byte
			for _, part := range parts {
				cat = append(cat, part...)
			}
			rd.gather = string(cat)
			check()

			root := i % p
			var b []byte
			if w.Rank() == root {
				b = []byte(fmt.Sprintf("round-%d", i))
			}
			rd.bcast = string(w.Broadcast(b, root, "bc"))
			check()

			data := make([]float64, 4*p+3)
			for j := range data {
				data[j] = float64(j + w.Rank())
			}
			// Each rank owns a different contiguous shard; verify it
			// against the closed-form reduction sum_r (j+r) = p*j + p(p-1)/2
			// rather than comparing shards across ranks.
			shard := w.ReduceScatter(data, "rs")
			off := w.Rank() * (len(data) / p)
			rd.shardOK = true
			for k, v := range shard {
				want := float64(p*(off+k)) + float64(p*(p-1))/2
				if v != want {
					rd.shardOK = false
				}
			}
			if !rd.shardOK {
				panic(fmt.Sprintf("rank %d round %d: bad reduce-scatter shard", w.Rank(), i))
			}
			check()

			if i%7 == 0 {
				w.Barrier()
				check()
			}
			if i%5 == 0 {
				peer := w.Rank() ^ 1
				got := w.SendRecv(peer, []byte{byte(w.Rank())}, "p2p")
				if len(got) != 1 || got[0] != byte(peer) {
					panic(fmt.Sprintf("rank %d SendRecv got %v", w.Rank(), got))
				}
				check()
			}
			log = append(log, rd)
		}
		perRank[w.Rank()] = log
	})
	for r := 1; r < p; r++ {
		if len(perRank[r]) != rounds {
			t.Fatalf("rank %d logged %d rounds", r, len(perRank[r]))
		}
		for i := range perRank[r] {
			if perRank[r][i] != perRank[0][i] {
				t.Fatalf("rank %d round %d diverged: %+v vs %+v", r, i, perRank[r][i], perRank[0][i])
			}
		}
	}
	for _, w := range workers {
		if w.Time() <= 0 {
			t.Fatalf("rank %d: no simulated time", w.Rank())
		}
	}
}

func TestSendRecvExchangesAndCharges(t *testing.T) {
	cfg := tinyConfig() // 2 GPUs/node: ranks 0,1 co-located; 2 is remote
	c := New(cfg, 3)
	workers := c.Run(func(w *Worker) {
		switch w.Rank() {
		case 0:
			got := w.SendRecv(1, []byte("from-0"), "intra")
			if string(got) != "from-1" {
				panic(fmt.Sprintf("rank 0 got %q", got))
			}
			got = w.SendRecv(2, []byte("cross"), "inter")
			if string(got) != "cross-back" {
				panic(fmt.Sprintf("rank 0 got %q", got))
			}
		case 1:
			if got := w.SendRecv(0, []byte("from-1"), "intra"); string(got) != "from-0" {
				panic(fmt.Sprintf("rank 1 got %q", got))
			}
		case 2:
			if got := w.SendRecv(0, []byte("cross-back"), "inter"); string(got) != "cross" {
				panic(fmt.Sprintf("rank 2 got %q", got))
			}
		}
	})
	w0 := workers[0]
	if w0.Stats()["intra"] <= 0 || w0.Stats()["inter"] <= 0 {
		t.Fatalf("stats not charged: %v", w0.Stats())
	}
	// The inter-node hop is slower than the intra-node one for equal-ish
	// bytes on this config.
	if w0.Stats()["inter"] <= w0.Stats()["intra"] {
		t.Fatalf("inter %g not above intra %g", w0.Stats()["inter"], w0.Stats()["intra"])
	}
	if w0.SendRecv(0, []byte("self"), "self") == nil {
		t.Fatal("self SendRecv dropped payload")
	}
}

func TestAlgStatsAndEventTrace(t *testing.T) {
	c := New(tinyConfig(), 4)
	c.SetTracing(true)
	workers := c.Run(func(w *Worker) {
		w.AllReduce(make([]float64, 256), "ar")
		w.AllGather(make([]byte, 128), "ag")
	})
	led := workers[0].Ledger()
	for _, w := range workers {
		if len(w.AlgSeconds()) == 0 {
			t.Fatalf("rank %d: no per-algorithm stats", w.Rank())
		}
		for k, v := range w.AlgSeconds() {
			if v < 0 {
				t.Fatalf("rank %d: negative alg time %s=%g", w.Rank(), k, v)
			}
		}
		events := led.EventsOf(w.Rank())
		if len(events) == 0 || led.TotalEventsOf(w.Rank()) == 0 {
			t.Fatalf("rank %d: no event trace", w.Rank())
		}
		for _, ev := range events {
			if ev.Src != w.Rank() && ev.Dst != w.Rank() && ev.Src >= 0 {
				t.Fatalf("rank %d trace holds foreign event %+v", w.Rank(), ev)
			}
		}
	}
	if _, merged := led.Merged(); len(merged) == 0 {
		t.Fatal("merged algorithm seconds empty")
	}
}

func TestAnalyticPolicyKeepsClosedFormCharges(t *testing.T) {
	cfg := tinyConfig()
	cfg.Collective = "analytic"
	c := New(cfg, 4)
	workers := c.Run(func(w *Worker) {
		w.AllReduce(make([]float64, 1024), "ar")
	})
	want := cfg.AllReduceTime(4*1024, 4)
	for _, w := range workers {
		if math.Abs(w.Time()-want) > 1e-15 {
			t.Fatalf("rank %d analytic time %g, want %g", w.Rank(), w.Time(), want)
		}
	}
}

func TestEngineAccessor(t *testing.T) {
	c := New(Platform1(), 16)
	alg, sec := c.Engine().PredictAllReduce(1 << 20)
	if alg == "" || sec <= 0 {
		t.Fatalf("predict = %q, %g", alg, sec)
	}
}

func TestReduceScatterTimeModel(t *testing.T) {
	cfg := Platform1()
	if cfg.ReduceScatterTime(1<<20, 1) != 0 {
		t.Fatal("single-worker reduce-scatter should be free")
	}
	if cfg.ReduceScatterTime(1<<24, 64) <= cfg.ReduceScatterTime(1<<20, 64) {
		t.Fatal("reduce-scatter time not increasing in bytes")
	}
	// Reduce-scatter moves half of an all-reduce's volume.
	if cfg.ReduceScatterTime(1<<24, 64) >= cfg.AllReduceTime(1<<24, 64) {
		t.Fatal("reduce-scatter should cost less than all-reduce")
	}
}

// BenchmarkRendezvousBarrier measures the raw rendezvous round-trip at
// P=64: every iteration is one payload-free barrier round across all 64
// goroutines. This is the wakeup-cost benchmark for the phase-counted
// arrival barrier (vs the previous sync.Cond.Broadcast rendezvous).
func BenchmarkRendezvousBarrier(b *testing.B) {
	benchRendezvous(b, 64, func(w *Worker, rounds int) {
		for i := 0; i < rounds; i++ {
			w.Barrier()
		}
	})
}

// BenchmarkRendezvousAllReduce measures a small all-reduce per round at
// P=64 — the rendezvous plus one engine-scheduled collective, the shape
// of the training loop's hot path.
func BenchmarkRendezvousAllReduce(b *testing.B) {
	benchRendezvous(b, 64, func(w *Worker, rounds int) {
		data := make([]float64, 64)
		for i := 0; i < rounds; i++ {
			w.AllReduce(data, "bench")
		}
	})
}

func benchRendezvous(b *testing.B, p int, fn func(w *Worker, rounds int)) {
	cfg := tinyConfig()
	b.ReportAllocs()
	b.ResetTimer()
	c := New(cfg, p)
	c.Run(func(w *Worker) { fn(w, b.N) })
}
