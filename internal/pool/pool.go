// Package pool provides the buffer arena and the shared bounded worker pool
// behind the repository's real-compute hot paths. The paper's kernel-level
// point (§4.5) is that compression only pays off when the (de)compression
// kernels themselves are cheap; the Go mirror of that claim is that the
// compressors, encoders and the training loop's gather paths must not spend
// their time in the allocator. Every scratch buffer the fused kernels need —
// bitmaps, zig-zag code vectors, byte planes, encoder bodies, float
// conversion scratch — comes from the size-classed sync.Pool arenas here, so
// steady-state training steps run near-zero-alloc.
//
// Do (and ParallelFor over it) is the chunk/layer-parallel execution
// primitive (the thread-block analogue of the fused CUDA kernels): the
// caller plus persistent helper goroutines, at most GOMAXPROCS−1 of them
// process-wide, with deterministic, part-addressed output. Callers write
// results into their own part, so the schedule never influences the bytes
// produced — the determinism contract the simulated training results and
// the compressors' blobs depend on.
package pool

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 1<<minClassShift elements up to
// 1<<maxClassShift; larger requests fall through to plain make and are not
// retained on Put (they would pin large memory for rare callers).
const (
	minClassShift = 6 // 64 elements
	maxClassShift = 24
	numClasses    = maxClassShift - minClassShift + 1
)

// classFor returns the size-class index covering n elements, or -1 when n
// is outside the pooled range.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	if n > 1<<maxClassShift {
		return -1
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c < 0 {
		return 0
	}
	return c
}

// classCap returns the capacity of buffers in class c.
func classCap(c int) int { return 1 << (c + minClassShift) }

// arena is a size-classed pool of []T buffers. Pools store *[]T so Put does
// not allocate a fresh slice-header box per call.
type arena[T any] struct {
	classes [numClasses]sync.Pool
}

// get returns a slice of length n (contents undefined — callers must fully
// overwrite or zero it).
func (a *arena[T]) get(n int) []T {
	c := classFor(n)
	if c < 0 {
		return make([]T, n)
	}
	if v := a.classes[c].Get(); v != nil {
		s := (*(v.(*[]T)))[:n]
		if debugEnabled.Load() {
			debugGetPooled(s)
		}
		return s
	}
	s := make([]T, n, classCap(c))
	if debugEnabled.Load() {
		debugGetFresh(s)
	}
	return s
}

// put returns a buffer obtained from get. Buffers whose capacity does not
// match a class (foreign or oversized slices) are dropped.
func (a *arena[T]) put(s []T) {
	c := classFor(cap(s))
	if c < 0 || cap(s) != classCap(c) {
		return
	}
	if debugEnabled.Load() {
		debugPut(s)
	}
	s = s[:0]
	a.classes[c].Put(&s)
}

var (
	bytesArena arena[byte]
	u32Arena   arena[uint32]
	f32Arena   arena[float32]
	f64Arena   arena[float64]
	intArena   arena[int]
)

// Bytes returns a pooled []byte of length n. Contents are undefined.
func Bytes(n int) []byte { return bytesArena.get(n) }

// PutBytes recycles a buffer obtained from Bytes. The caller must not
// retain any reference to it afterwards.
func PutBytes(b []byte) { bytesArena.put(b) }

// U32 returns a pooled []uint32 of length n. Contents are undefined.
func U32(n int) []uint32 { return u32Arena.get(n) }

// PutU32 recycles a buffer obtained from U32.
func PutU32(s []uint32) { u32Arena.put(s) }

// F32 returns a pooled []float32 of length n. Contents are undefined.
func F32(n int) []float32 { return f32Arena.get(n) }

// PutF32 recycles a buffer obtained from F32.
func PutF32(s []float32) { f32Arena.put(s) }

// Ints returns a pooled []int of length n. Contents are undefined.
func Ints(n int) []int { return intArena.get(n) }

// PutInts recycles a buffer obtained from Ints.
func PutInts(s []int) { intArena.put(s) }

// F64 returns a pooled []float64 of length n. Contents are undefined.
func F64(n int) []float64 { return f64Arena.get(n) }

// PutF64 recycles a buffer obtained from F64.
func PutF64(s []float64) { f64Arena.put(s) }

// Workers returns the parallelism bound of the shared worker pool.
func Workers() int { return runtime.GOMAXPROCS(0) }

// A Task is work cut into parts: Run(i) does part i. Parts may run
// concurrently, so Run must write only to part-addressed state.
type Task interface {
	Run(part int)
}

// job is one Do call's state, shared by the caller and every helper that
// took it. Jobs are recycled, so a dispatch allocates nothing.
type job struct {
	t    Task
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup // one count per helper that took the job
	// panicked holds the first panic a helper recovered from a part, for
	// the caller to raise again.
	panicked atomic.Pointer[partPanic]
}

// partPanic is the value Do panics with when a part panicked on a helper:
// the part's panic value and the helper's stack where it was raised.
type partPanic struct {
	value any
	stack []byte
}

func (p *partPanic) Error() string {
	return fmt.Sprintf("pool: part panicked: %v\n%s", p.value, p.stack)
}

// help is a helper's share of j. A panicking part is recovered and handed
// to the caller, so it unwinds the goroutine that called Do (where a server
// may recover it) instead of ending the process.
func (j *job) help() {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, &partPanic{value: r, stack: debug.Stack()})
		}
		idle.Add(1)
		j.wg.Done()
	}()
	j.work()
}

// work claims parts in index order until none is left.
func (j *job) work() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.t.Run(int(i))
	}
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// handoff carries jobs to idle helpers. idle counts the helpers that will
// receive on it next: a helper counts itself in before it signals the end
// of its last part, so a caller woken by that signal already sees it, and a
// caller sends only after claiming one count, so every send finds a helper
// on its way to receive and no job queues behind busy helpers.
var (
	handoff = make(chan *job)
	idle    atomic.Int32
)

// helpers counts the persistent helper goroutines started so far; helperMu
// serializes starting them.
var (
	helpers  atomic.Int32
	helperMu sync.Mutex
)

// startHelpers makes sure at least k helpers exist. They live for the rest
// of the process, blocked on handoff while idle, so the number of helper
// goroutines is the largest GOMAXPROCS−1 the process has run with, however
// many fan-outs nest or run concurrently.
func startHelpers(k int) {
	if int(helpers.Load()) >= k {
		return
	}
	helperMu.Lock()
	defer helperMu.Unlock()
	for int(helpers.Load()) < k {
		helpers.Add(1)
		idle.Add(1)
		go func() {
			for j := range handoff {
				j.help()
			}
		}()
	}
}

// claimIdle takes one idle helper's count, reporting false when none is
// idle.
func claimIdle() bool {
	for {
		k := idle.Load()
		if k <= 0 {
			return false
		}
		if idle.CompareAndSwap(k, k-1) {
			return true
		}
	}
}

// Do runs t.Run(i) for every i in [0, n) on the calling goroutine plus up to
// limit−1 idle helpers (limit <= 0 means Workers()), and returns when every
// part is done. Parts are claimed in index order; which goroutine runs a
// part is unspecified, so the schedule must not influence what t writes.
// The caller always works and waits only for helpers that took a part of
// this call, so nested and concurrent calls cannot deadlock: when no helper
// is idle, the caller runs every part itself. A part that panics makes Do
// panic on the caller once every helper is done with the call: with the
// part's own value when it ran on the caller, with a *partPanic when it
// ran on a helper.
func Do(n, limit int, t Task) {
	if n <= 0 {
		return
	}
	if limit <= 0 {
		limit = Workers()
	}
	want := min(limit, n, Workers()) - 1 // helpers beyond the caller
	if want <= 0 {
		for i := 0; i < n; i++ {
			t.Run(i)
		}
		return
	}
	startHelpers(Workers() - 1)
	j := jobs.Get().(*job)
	j.t, j.n = t, int64(n)
	j.next.Store(0)
	for k := 0; k < want && claimIdle(); k++ {
		j.wg.Add(1)
		handoff <- j
	}
	func() {
		defer j.wg.Wait() // also when a part panics on the caller
		j.work()
	}()
	if p := j.panicked.Load(); p != nil {
		panic(p)
	}
	j.t = nil
	jobs.Put(j)
}

// funcTask adapts a function to Task.
type funcTask func(i int)

func (f funcTask) Run(i int) { f(i) }

// ParallelFor runs fn(i) for every i in [0, n) through Do: on the calling
// goroutine plus up to limit−1 idle helpers (limit <= 0 means GOMAXPROCS).
// Indices are claimed atomically, so the iteration order is unspecified —
// callers must make fn write only to index-addressed state. ParallelFor
// returns when every index has been processed.
func ParallelFor(n, limit int, fn func(i int)) { Do(n, limit, funcTask(fn)) }
