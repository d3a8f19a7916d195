package cluster

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"compso/internal/pool"
)

// TestAllReduceAsyncMatchesSync: launch + immediate wait must reproduce
// the blocking call exactly — values, clock, and per-algorithm stats.
func TestAllReduceAsyncMatchesSync(t *testing.T) {
	run := func(async bool) ([]float64, float64, map[string]float64) {
		c := New(tinyConfig(), 4)
		var data []float64
		var tEnd float64
		var alg map[string]float64
		ws := c.Run(func(w *Worker) {
			d := make([]float64, 1000)
			for i := range d {
				d[i] = float64(w.Rank()*1000 + i)
			}
			if async {
				w.AllReduceAsync(d, "x").Wait()
			} else {
				w.AllReduce(d, "x")
			}
			if w.Rank() == 0 {
				data, tEnd, alg = d, w.Time(), w.AlgSeconds()
			}
		})
		_ = ws
		return data, tEnd, alg
	}
	sd, st, salg := run(false)
	ad, at, aalg := run(true)
	for i := range sd {
		if sd[i] != ad[i] {
			t.Fatalf("value %d differs: %v vs %v", i, sd[i], ad[i])
		}
	}
	if st != at {
		t.Fatalf("clock differs: sync %v vs async %v", st, at)
	}
	for k, v := range salg {
		if aalg[k] != v {
			t.Fatalf("AlgSeconds[%s] differs: %v vs %v", k, v, aalg[k])
		}
	}
}

// TestAllGatherAsyncMatchesSync: same contract for the byte all-gather,
// including empty payloads.
func TestAllGatherAsyncMatchesSync(t *testing.T) {
	run := func(async bool) ([][]byte, float64) {
		c := New(tinyConfig(), 4)
		var parts [][]byte
		var tEnd float64
		c.Run(func(w *Worker) {
			var payload []byte
			if w.Rank()%2 == 0 { // odd ranks gather empty payloads
				payload = []byte(fmt.Sprintf("rank-%d-data", w.Rank()))
			}
			var got [][]byte
			if async {
				got = w.AllGatherAsync(payload, "x").Wait()
			} else {
				got = w.AllGather(payload, "x")
			}
			if w.Rank() == 0 {
				parts, tEnd = got, w.Time()
			}
		})
		return parts, tEnd
	}
	sp, st := run(false)
	ap, at := run(true)
	if st != at {
		t.Fatalf("clock differs: sync %v vs async %v", st, at)
	}
	for r := range sp {
		if string(sp[r]) != string(ap[r]) {
			t.Fatalf("rank %d payload differs: %q vs %q", r, sp[r], ap[r])
		}
	}
}

// TestAsyncHiddenCommChargesZero: a collective whose scheduled end the
// clock has already passed must charge nothing at Wait — its latency was
// fully hidden — and the exposed/total overlap stats must reflect it.
func TestAsyncHiddenCommChargesZero(t *testing.T) {
	c := New(tinyConfig(), 2)
	c.Run(func(w *Worker) {
		d := make([]float64, 1<<16)
		p := w.AllReduceAsync(d, "x")
		w.Compute(1e6, "hide") // vastly longer than any collective here
		before := w.Time()
		p.Wait()
		if w.Time() != before {
			panic(fmt.Sprintf("rank %d: hidden wait advanced the clock %v -> %v", w.Rank(), before, w.Time()))
		}
		exposed, total := w.OverlapStats()
		if exposed != 0 {
			panic(fmt.Sprintf("rank %d: hidden collective charged %v exposed seconds", w.Rank(), exposed))
		}
		if total <= 0 {
			panic(fmt.Sprintf("rank %d: no collective span accumulated", w.Rank()))
		}
	})
}

// TestAsyncWaitIdempotent: double Wait charges once and keeps the data.
func TestAsyncWaitIdempotent(t *testing.T) {
	c := New(tinyConfig(), 2)
	c.Run(func(w *Worker) {
		d := []float64{1, 2}
		p := w.AllReduceAsync(d, "x")
		p.Wait()
		after := w.Time()
		p.Wait()
		if w.Time() != after {
			panic("second Wait advanced the clock")
		}
		if d[0] != 2 || d[1] != 4 {
			panic(fmt.Sprintf("sum lost after double Wait: %v", d))
		}
	})
}

// TestSerializeWireQueuesInFlightCollectives: with wire serialization on,
// a second collective launched while the first is still in flight starts
// after it on the fabric, so the overlapped run's exposed comm time can
// never beat the physical back-to-back schedule.
func TestSerializeWireQueuesInFlightCollectives(t *testing.T) {
	run := func(serialize bool) float64 {
		c := New(tinyConfig(), 4)
		c.SerializeWire(serialize)
		var end float64
		c.Run(func(w *Worker) {
			a := make([]float64, 1<<18)
			b := make([]float64, 1<<18)
			pa := w.AllReduceAsync(a, "x")
			pb := w.AllReduceAsync(b, "x")
			pa.Wait()
			pb.Wait()
			if w.Rank() == 0 {
				end = w.Time()
			}
		})
		return end
	}
	free, queued := run(false), run(true)
	if queued <= free {
		t.Fatalf("serialized schedule %v not later than free-fabric schedule %v", queued, free)
	}
	if math.IsNaN(queued) || math.IsInf(queued, 0) {
		t.Fatalf("non-finite serialized schedule %v", queued)
	}
}

// TestSerializeWireOffLeavesSyncPathUntouched: the default (off) must keep
// blocking collectives on the exact pre-overlap timeline — per-rank early
// finishers may legitimately arrive at the next collective "under" a
// previous one's max end, and no cursor may clamp them. The blocking calls
// are a launch with an immediate wait, so a blocking-only program must
// also leave every rank with nothing credited as hidden.
func TestSerializeWireOffLeavesSyncPathUntouched(t *testing.T) {
	run := func() float64 {
		c := New(tinyConfig(), 4)
		var end float64
		workers := c.Run(func(w *Worker) {
			d := make([]float64, 1<<14)
			for i := 0; i < 4; i++ {
				w.AllReduce(d, "x")
				w.Compute(1e-6*float64(w.Rank()), "skew")
				w.AllGather(make([]byte, 256*(w.Rank()+1)), "y")
			}
			if w.Rank() == 0 {
				end = w.Time()
			}
		})
		for _, w := range workers {
			if exposed, total := w.OverlapStats(); total <= 0 || exposed != total {
				t.Fatalf("rank %d: blocking-only program exposed %v of %v collective seconds", w.Rank(), exposed, total)
			}
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("sync path nondeterministic: %v vs %v", a, b)
	}
}

// TestAsyncGatherRejectsArenaPayloads: the launch boundary must enforce
// the retention contract under pool debug mode — gathered payloads are
// retained by other goroutines, so arena buffers may never enter them,
// through the handle or through the blocking call built on it.
func TestAsyncGatherRejectsArenaPayloads(t *testing.T) {
	defer pool.SetDebug(pool.DebugEnabled())
	pool.SetDebug(true)
	b := pool.Bytes(64)
	defer pool.PutBytes(b)
	gathers := map[string]func(w *Worker){
		"AllGatherAsync": func(w *Worker) { w.AllGatherAsync(b, "x") },
		"AllGather":      func(w *Worker) { w.AllGather(b, "x") },
	}
	for name, gather := range gathers {
		var panicked bool
		c := New(tinyConfig(), 1)
		c.Run(func(w *Worker) {
			defer func() { panicked = recover() != nil }()
			gather(w)
		})
		if !panicked {
			t.Fatalf("%s accepted a live arena payload", name)
		}
	}
}

// Every all-reduce sums into the cluster's one buffer, and every rank
// copies its sum out at launch. Back-to-back launches of different lengths
// (longer, shorter, empty) waited in reverse, blocking all-reduces and an
// all-gather in between, and ranks that arrive in a different order each
// round all leave every rank with its own collective's rank-order sum from
// +0. Run it under -race too: the buffer is written by whichever rank
// combines.
func TestAllReduceSumBufferAcrossCollectives(t *testing.T) {
	const p = 5
	lens := []int{1000, 7, 0, 1500, 3, 1000}
	// contribution makes the sum order-sensitive: rank 0's ±1e16 swamps
	// the small terms unless they are added in rank order.
	contribution := func(rank, call, i int) float64 {
		if rank == 0 {
			return math.Copysign(1e16, float64(i%2)-0.5)
		}
		return float64(rank*(call+1)) + 0.125*float64(i%5)
	}
	want := make([][]float64, len(lens))
	for call, n := range lens {
		want[call] = make([]float64, n)
		for i := range want[call] {
			for r := range p {
				want[call][i] += contribution(r, call, i)
			}
		}
	}
	New(tinyConfig(), p).Run(func(w *Worker) {
		data := make([][]float64, len(lens))
		for call, n := range lens {
			data[call] = make([]float64, n)
			for i := range data[call] {
				data[call][i] = contribution(w.Rank(), call, i)
			}
		}
		check := func(call int) {
			for i, v := range data[call] {
				if math.Float64bits(v) != math.Float64bits(want[call][i]) {
					t.Errorf("rank %d all-reduce %d value %d = %v, want %v", w.Rank(), call, i, v, want[call][i])
					return
				}
			}
		}
		// Ranks reach each launch in a rotating order.
		stagger := func(call int) {
			for range (w.Rank() + call) % p {
				runtime.Gosched()
			}
		}
		var pend []*PendingReduce
		for call := range 4 {
			stagger(call)
			pend = append(pend, w.AllReduceAsync(data[call], "x"))
		}
		w.AllGather([]byte{byte(w.Rank())}, "g")
		for call := 4; call < len(lens); call++ {
			stagger(call)
			w.AllReduce(data[call], "x")
			check(call)
		}
		for call := 3; call >= 0; call-- {
			pend[call].Wait()
			check(call)
		}
	})
}
