package pool

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Debug mode is the pool's server-hardening instrument: long-running callers
// (one misbehaving compso-serve session) can corrupt a sync.Pool arena in
// ways that only surface much later as crosstalk between unrelated requests —
// a buffer Put twice is handed to two callers at once; a buffer written after
// Put scribbles over another session's scratch. When enabled, every class-
// sized buffer is tracked by its backing-array address: double-Put panics at
// the offending call (with the original Put site in the message), buffers are
// filled with a poison pattern on Put and verified on reuse so a
// write-after-Put panics at the next Get, and live/pooled counts are exported
// so tests can assert that a torn-down session returned everything it took.
//
// Enable with SetDebug(true) (tests) or the COMPSO_POOL_DEBUG environment
// variable (any value but "" or "0"). Disabled, the only cost on the hot
// path is one atomic load per get/put. Tracking is address-keyed, so each
// arena-born buffer arms a finalizer that deletes its entry when the GC
// reclaims the backing allocation (sync.Pool may drop pooled buffers at any
// GC) — without it, a plain make() landing on the recycled address would
// inherit the stale entry and trip AssertNotArena with a false positive.
// SetFinalizer keeps the memory unreusable until the finalizer has run, so
// the deletion always precedes any reuse. The only remaining stale-entry
// window is a foreign (non-arena) class-sized slice first seen at Put,
// whose allocation base is unknown — rare enough for a debugging aid that
// is off in production.

// debugEnabled gates all tracking; checked with a single atomic load on the
// arena hot paths.
var debugEnabled atomic.Bool

func init() {
	if v := os.Getenv("COMPSO_POOL_DEBUG"); v != "" && v != "0" {
		// SetDebug, not a bare Store: the tracker map must exist before
		// the first tracked Get/Put.
		SetDebug(true)
	}
}

// poisonByte fills freed buffers; chosen to be a NaN-ish, obviously-wrong
// bit pattern in every element type the arenas serve.
const poisonByte = 0xDB

// poisonBlock is poisonByte repeated. Buffers are poisoned and verified a
// block at a time, by copy and comparison: under the race detector that is
// one range access per block instead of an instrumented access per byte.
var poisonBlock = bytes.Repeat([]byte{poisonByte}, 4096)

// poison fills b with poisonByte.
func poison(b []byte) {
	for off := 0; off < len(b); {
		off += copy(b[off:], poisonBlock)
	}
}

// firstUnpoisoned returns the offset of the first byte of b that is not
// poisonByte, or -1 when b is poisoned throughout.
func firstUnpoisoned(b []byte) int {
	for off := 0; off < len(b); off += len(poisonBlock) {
		block := b[off:min(off+len(poisonBlock), len(b))]
		if bytes.Equal(block, poisonBlock[:len(block)]) {
			continue
		}
		for i, c := range block {
			if c != poisonByte {
				return off + i
			}
		}
	}
	return -1
}

// debugEntry is one tracked buffer's state.
type debugEntry struct {
	pooled  bool
	putSite string // formatted caller frames of the Put that pooled it
}

var debugTracker struct {
	mu      sync.Mutex
	entries map[uintptr]*debugEntry
	live    int
	pooled  int
}

// SetDebug enables or disables pool debug tracking and resets all tracker
// state. Not intended for concurrent use with in-flight get/put traffic:
// flip it in test setup, before the workload starts.
func SetDebug(on bool) {
	debugTracker.mu.Lock()
	debugTracker.entries = make(map[uintptr]*debugEntry)
	debugTracker.live = 0
	debugTracker.pooled = 0
	debugTracker.mu.Unlock()
	debugEnabled.Store(on)
}

// DebugEnabled reports whether debug tracking is active.
func DebugEnabled() bool { return debugEnabled.Load() }

// DebugStats is a point-in-time view of the tracked buffer population.
type DebugStats struct {
	// Live is the number of tracked buffers currently held by callers.
	Live int
	// Pooled is the number of tracked buffers resting in the arenas.
	Pooled int
}

// Stats returns the tracker's current live/pooled counts (zero when debug
// mode is off). Tests assert Live returns to its baseline after a
// session/request finishes to prove nothing leaked.
func Stats() DebugStats {
	debugTracker.mu.Lock()
	defer debugTracker.mu.Unlock()
	return DebugStats{Live: debugTracker.live, Pooled: debugTracker.pooled}
}

// dataKey returns the tracking key: the buffer's backing-array address.
func dataKey[T any](s []T) uintptr {
	if cap(s) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(s[:cap(s)])))
}

// byteView reinterprets the buffer's full capacity as raw bytes for
// poisoning and verification.
func byteView[T any](s []T) []byte {
	if cap(s) == 0 {
		return nil
	}
	var t T
	full := s[:cap(s)]
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(full))), cap(s)*int(unsafe.Sizeof(t)))
}

// callerSite formats a short stack of the caller for double-Put diagnostics.
func callerSite() string {
	var pcs [6]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	site := ""
	for {
		f, more := frames.Next()
		if f.Function != "" {
			if site != "" {
				site += " <- "
			}
			site += fmt.Sprintf("%s:%d", f.Function, f.Line)
		}
		if !more || len(site) > 200 {
			break
		}
	}
	return site
}

// AssertNotArena panics when debug mode is on and b's backing array is a
// tracked arena buffer. It is the collective-boundary check: Broadcast and
// AllGather payloads are retained by other workers' goroutines long after
// the sender's call returns, so an arena buffer crossing that boundary is
// a future use-after-Put no matter how careful the sender is. With debug
// mode off the check is a single atomic load.
func AssertNotArena(b []byte, boundary string) {
	if !debugEnabled.Load() {
		return
	}
	k := dataKey(b)
	if k == 0 {
		return
	}
	debugTracker.mu.Lock()
	e, ok := debugTracker.entries[k]
	var pooled bool
	var site string
	if ok {
		pooled, site = e.pooled, e.putSite
	}
	debugTracker.mu.Unlock()
	if !ok {
		return
	}
	if pooled {
		panic(fmt.Sprintf(
			"pool: buffer %#x (cap %d) entering %s was already pooled at [%s] (use-after-Put)",
			k, cap(b), boundary, site))
	}
	panic(fmt.Sprintf(
		"pool: live arena buffer %#x (cap %d) escaping into %s; collective payloads are retained by other goroutines and must be fresh allocations",
		k, cap(b), boundary))
}

// debugArm attaches the stale-entry reaper to an arena-born buffer: when
// the GC reclaims the backing allocation (abandoned live buffer, or a
// pooled one the sync.Pool dropped), the finalizer removes its tracker
// entry before the address can be reused. s must span its allocation from
// the base (true for every buffer the arenas make), or SetFinalizer
// panics.
func debugArm[T any](s []T) {
	k := dataKey(s)
	base := unsafe.SliceData(s[:cap(s)])
	// A buffer re-adopted after a SetDebug reset is already armed; clear
	// the old finalizer first (setting over an existing one is a runtime
	// fatal error).
	runtime.SetFinalizer(base, nil)
	runtime.SetFinalizer(base, func(*T) {
		debugTracker.mu.Lock()
		if e, ok := debugTracker.entries[k]; ok {
			if e.pooled {
				debugTracker.pooled--
			} else {
				debugTracker.live--
			}
			delete(debugTracker.entries, k)
		}
		debugTracker.mu.Unlock()
	})
}

// debugGetFresh records a newly allocated class-sized buffer as live. A
// stale entry at the same address belonged to a GC-reclaimed buffer and is
// overwritten.
func debugGetFresh[T any](s []T) {
	k := dataKey(s)
	if k == 0 {
		return
	}
	debugArm(s)
	debugTracker.mu.Lock()
	defer debugTracker.mu.Unlock()
	if old, ok := debugTracker.entries[k]; ok {
		if old.pooled {
			debugTracker.pooled--
		} else {
			debugTracker.live--
		}
	}
	debugTracker.entries[k] = &debugEntry{}
	debugTracker.live++
}

// debugGetPooled transitions a buffer handed out by an arena pool from
// pooled to live, verifying the poison pattern laid down at Put time. A
// poison mismatch means some caller wrote through a stale reference after
// Put — the use-after-Put bug — and panics with the buffer's pooling site.
func debugGetPooled[T any](s []T) {
	k := dataKey(s)
	if k == 0 {
		return
	}
	debugTracker.mu.Lock()
	defer debugTracker.mu.Unlock()
	e, ok := debugTracker.entries[k]
	if !ok {
		// Pooled before debug mode was enabled (or re-adopted after a
		// SetDebug reset): it came from an arena make, so arm the reaper
		// and adopt it as live.
		debugTracker.entries[k] = &debugEntry{}
		debugTracker.live++
		debugTracker.mu.Unlock()
		debugArm(s)
		debugTracker.mu.Lock()
		return
	}
	if e.pooled {
		if i := firstUnpoisoned(byteView(s)); i >= 0 {
			panic(fmt.Sprintf(
				"pool: use-after-Put detected: buffer %#x (cap %d elems) modified at byte %d after being pooled at [%s]",
				k, cap(s), i, e.putSite))
		}
		debugTracker.pooled--
	}
	e.pooled = false
	e.putSite = ""
	debugTracker.live++
}

// debugPut transitions a buffer to pooled, panicking if it is already
// pooled (double-Put) and poisoning its contents so any later write through
// a retained reference is caught by debugGetPooled.
func debugPut[T any](s []T) {
	k := dataKey(s)
	if k == 0 {
		return
	}
	site := callerSite()
	debugTracker.mu.Lock()
	e, ok := debugTracker.entries[k]
	if ok && e.pooled {
		prev := e.putSite
		debugTracker.mu.Unlock()
		panic(fmt.Sprintf(
			"pool: double Put detected: buffer %#x (cap %d elems) already pooled at [%s], second Put at [%s]",
			k, cap(s), prev, site))
	}
	if !ok {
		// First sighting (allocated before debug mode, or a foreign
		// class-sized slice): track it from here so a second Put panics.
		e = &debugEntry{}
		debugTracker.entries[k] = e
	} else {
		debugTracker.live--
	}
	e.pooled = true
	e.putSite = site
	debugTracker.pooled++
	debugTracker.mu.Unlock()
	poison(byteView(s))
}
