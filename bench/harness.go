package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// params is one run's input. small is the test-only size reduction: it
// shrinks every workload's inputs and op lengths so the self-test covers all
// six workloads and every probe in seconds. No flag sets it.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool
}

// metric is one reported number with its unit, as BENCHMARK.json's contract
// wants it on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meter collects what one phase of ops produced. Each client goroutine owns
// a meter and the harness merges them when the phase ends, so recording an
// op takes no lock.
type meter struct {
	opMs []float64 // wall time of each timed op, in ms
	// rawBytes is the fp32 bytes handed to Compress and blobBytes the bytes
	// it returned, as the benchmark counted them over the first round of the
	// phase. Later rounds are not counted (crFrozen): how many fit depends on
	// the host's speed, and with it the position of the stochastic-rounding
	// stream, so only the first round's ratio repeats exactly for a seed.
	rawBytes, blobBytes int64
	crFrozen            bool
	// cr is the ratio the program reported (train: Result.MeanCR, des:
	// CommSimInfo.Ratio) on workloads whose compress calls the benchmark
	// cannot see.
	cr float64
	// simMs is the simulated (modelled) time the ops advanced the clock.
	simMs float64
	// attempted counts ops, failed the ops that errored or failed a
	// correctness check.
	attempted, failed int
	firstFailure      string
	// shed counts the requests the server refused with 429 (serve only).
	shed int
}

func (m *meter) op(d time.Duration) {
	m.opMs = append(m.opMs, float64(d.Nanoseconds())/1e6)
	m.attempted++
}

// bytes counts one Compress call's input and output towards mean_cr.
func (m *meter) bytes(raw, blob int) {
	if !m.crFrozen {
		m.rawBytes += int64(raw)
		m.blobBytes += int64(blob)
	}
}

// fail records one failed op (at most one failure per op is counted).
func (m *meter) fail(format string, a ...any) {
	m.failed++
	if m.firstFailure == "" {
		m.firstFailure = fmt.Sprintf(format, a...)
	}
}

func (m *meter) merge(o *meter) {
	m.opMs = append(m.opMs, o.opMs...)
	m.rawBytes += o.rawBytes
	m.blobBytes += o.blobBytes
	m.simMs += o.simMs
	m.attempted += o.attempted
	m.failed += o.failed
	m.shed += o.shed
	if m.cr == 0 {
		m.cr = o.cr
	}
	if m.firstFailure == "" {
		m.firstFailure = o.firstFailure
	}
}

func (m *meter) meanCR() float64 {
	if m.blobBytes > 0 {
		return float64(m.rawBytes) / float64(m.blobBytes)
	}
	return m.cr
}

// instance is a workload after set-up: inputs generated, state built,
// warm-up done.
type instance interface {
	// run executes whole rounds of ops until done reports true after a
	// round, at least one round. It records each op into the returned
	// meter and, when tr is not nil, a span around every call into a layer.
	run(tr *tracer, done func() bool) *meter
}

// workload is one named entry of BENCHMARK.json.
type workload struct {
	name string
	// setup generates every input from seed, builds the workload's state
	// and runs the checked warm-up ops, recording their outcome in warm.
	setup func(p params, warm *meter) (instance, error)
}

// phase is what the harness measured around one instance.run.
type phase struct {
	*meter
	wallS    float64
	cpuMs    float64
	allocMB  float64
	gcCycles uint32
	gcPause  time.Duration
}

// measure runs inst for about seconds and brackets the run with the process
// CPU clock and the allocator's counters.
func measure(inst instance, tr *tracer, seconds float64) phase {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	m := inst.run(tr, func() bool { return time.Since(start) >= limit })
	wall := time.Since(start)
	cpu1 := processCPU()
	runtime.ReadMemStats(&after)
	return phase{
		meter:    m,
		wallS:    wall.Seconds(),
		cpuMs:    float64((cpu1 - cpu0).Nanoseconds()) / 1e6,
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// liveHeapMB is the heap still reachable after two collections (the second
// empties sync.Pool's victim cache, so pooled scratch does not count).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// tailSamples is the guide's rule: a percentile is reported only when at
// least this many samples lie beyond it.
const tailSamples = 10

// median returns the middle of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the q-quantile of xs by the nearest-rank rule, and
// false when fewer than tailSamples samples lie beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < tailSamples {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// fingerprint identifies the host and build a run was taken on; -compare
// refuses to compare runs whose fingerprints differ in anything but commit.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

var hostOnce = sync.OnceValue(func() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is then
	// unknown, which is a fact about the run and not an error. The ceiling
	// keeps git from searching above the working directory for one.
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		fp.Commit = commit
		if status, err := git("status", "--porcelain"); err == nil {
			fp.Dirty = status != ""
		}
	}
	return fp
})

// sameHost reports whether two runs were taken on comparable hosts.
func (f fingerprint) sameHost(o fingerprint) bool {
	return f.CPU == o.CPU && f.NumCPU == o.NumCPU && f.GoMaxProcs == o.GoMaxProcs && f.GoVersion == o.GoVersion
}
