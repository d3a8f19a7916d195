package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << maxClassShift, numClasses - 1},
		{1<<maxClassShift + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	b := Bytes(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Bytes(100): len %d cap %d", len(b), cap(b))
	}
	PutBytes(b)
	f := F32(1000)
	if len(f) != 1000 || cap(f) != 1024 {
		t.Fatalf("F32(1000): len %d cap %d", len(f), cap(f))
	}
	PutF32(f)
	u := U32(65)
	if len(u) != 65 || cap(u) != 128 {
		t.Fatalf("U32(65): len %d cap %d", len(u), cap(u))
	}
	PutU32(u)
	d := F64(64)
	if len(d) != 64 || cap(d) != 64 {
		t.Fatalf("F64(64): len %d cap %d", len(d), cap(d))
	}
	PutF64(d)
}

func TestOversizedNotRetained(t *testing.T) {
	n := 1<<maxClassShift + 1
	b := Bytes(n)
	if len(b) != n {
		t.Fatalf("len %d", len(b))
	}
	PutBytes(b) // must not panic and must be dropped
}

func TestForeignBufferDropped(t *testing.T) {
	// A buffer whose capacity is not a class capacity must be ignored.
	PutBytes(make([]byte, 0, 100))
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		hits := make([]int32, n)
		ParallelFor(n, 0, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestParallelForLimitOne(t *testing.T) {
	// limit 1 must run serially on the calling goroutine, in order.
	var order []int
	ParallelFor(10, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestParallelForNested(t *testing.T) {
	// Nested and concurrent ParallelFor calls must not deadlock and must
	// still cover every index.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outer := make([]int32, 16)
			ParallelFor(16, 0, func(i int) {
				inner := make([]int32, 8)
				ParallelFor(8, 0, func(j int) { inner[j]++ })
				for j, h := range inner {
					if h != 1 {
						t.Errorf("inner[%d] = %d", j, h)
					}
				}
				outer[i]++
			})
			for i, h := range outer {
				if h != 1 {
					t.Errorf("outer[%d] = %d", i, h)
				}
			}
		}()
	}
	wg.Wait()
}

// countTask records how often each part ran and, when inner > 0, runs a
// nested Do of inner parts from every part.
type countTask struct {
	t     *testing.T
	hits  []atomic.Int32
	inner int
}

func (c *countTask) Run(i int) {
	if c.inner > 0 {
		in := &countTask{t: c.t, hits: make([]atomic.Int32, c.inner)}
		Do(c.inner, 0, in)
		in.check("inner")
	}
	c.hits[i].Add(1)
}

func (c *countTask) check(what string) {
	for i := range c.hits {
		if h := c.hits[i].Load(); h != 1 {
			c.t.Errorf("%s part %d ran %d times", what, i, h)
		}
	}
}

// settledGoroutines waits briefly for goroutines that are ending (test
// helpers of an earlier test) and returns the count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return m
		}
		n = m
	}
	return n
}

// TestDoPersistentHelpersNested runs nested and concurrent Do calls at
// several GOMAXPROCS settings: every part runs exactly once, nothing
// deadlocks, and the helpers persist — thousands of fan-outs leave no more
// goroutines behind than the largest GOMAXPROCS−1 helpers.
func TestDoPersistentHelpersNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		startHelpers(procs - 1)
		base := settledGoroutines()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 50; r++ {
					outer := &countTask{t: t, hits: make([]atomic.Int32, 16), inner: 8}
					Do(16, 0, outer)
					outer.check("outer")
				}
			}()
		}
		wg.Wait()
		if got, h := settledGoroutines(), int(helpers.Load()); got > base || h > 3 {
			t.Errorf("GOMAXPROCS %d: %d goroutines after the fan-outs, %d before; %d helpers", procs, got, base, h)
		}
	}
}

// TestDoLimitOneRunsInOrderOnCaller holds limit 1 to an in-order loop on
// the calling goroutine, whatever GOMAXPROCS is.
func TestDoLimitOneRunsInOrderOnCaller(t *testing.T) {
	var order []int
	Do(10, 1, funcTask(func(i int) { order = append(order, i) }))
	for i, v := range order {
		if v != i || len(order) != 10 {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

// panicTask panics in part bad after holding every part a moment, so a
// helper is likely to run the bad one.
type panicTask struct{ bad int }

func (p panicTask) Run(i int) {
	time.Sleep(100 * time.Microsecond)
	if i == p.bad {
		panic("part failed")
	}
}

// TestDoRaisesPartPanicsOnCaller: a part's panic, on the caller or on a
// helper, comes out of Do on the caller with the part's value, and the
// helpers go on serving later calls.
func TestDoRaisesPartPanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	startHelpers(1)
	base := settledGoroutines()
	for bad := 0; bad < 8; bad++ {
		func() {
			defer func() {
				r := recover()
				if pp, ok := r.(*partPanic); ok {
					r = pp.value
				}
				if r != "part failed" {
					t.Errorf("part %d: Do raised %v, want the part's panic", bad, r)
				}
			}()
			Do(8, 0, panicTask{bad})
			t.Errorf("part %d: Do returned after a panic", bad)
		}()
	}
	ok := &countTask{t: t, hits: make([]atomic.Int32, 64)}
	Do(64, 0, ok)
	ok.check("after the panics")
	if got := settledGoroutines(); got > base {
		t.Errorf("%d goroutines after the panics, %d before", got, base)
	}
}
