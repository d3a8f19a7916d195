// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics of BENCHMARK.json from an untraced run and the
// per-layer metrics from a traced one. It measures every layer from
// outside, by timing calls into exported functions, and owns its inputs and
// load generators. See README.md in this directory.
//
//	go run ./bench -workload codec_4mb [-seed 1] [-seconds 10] [-trace 1] [-out runs.jsonl]
//	go run ./bench -all [-out runs.jsonl]
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// traceDir is where a traced run leaves its Chrome trace when -out names no
// file; the driver's build directory, which .gitignore lists.
const traceDir = ".bench_build"

// An untraced run sets the workload up at least minSetups times, and goes on
// while the set-ups so far took under setupBudget, up to maxSetups, so that a
// cheap set-up is sampled more often. setup_s is the median; the last set-up
// is the one measured.
const (
	minSetups = 3
	maxSetups = 9
)

func main() {
	// nproc is 2 on the reference sandbox; a wider host must not turn the
	// workloads into different ones.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p params
	fs.StringVar(&p.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&p.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&p.seconds, "seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes a Chrome trace")
	out := fs.String("out", "", "append the run as one JSON line to this file")
	all := fs.Bool("all", false, "run every workload, untraced then traced, each in a fresh process")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p.trace = *trace != 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two -out files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stderr)
	case *all:
		return runAll(p, *out, stdout, stderr)
	}
	if _, ok := workloadByName(p.workload); !ok || p.seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: need -workload (one of %v) and -seconds > 0\n", workloadNames())
		return 2
	}
	tracePath := filepath.Join(traceDir, "trace-"+p.workload+".json")
	if *out != "" {
		tracePath = filepath.Join(filepath.Dir(*out), "trace-"+p.workload+".json")
	}
	rec, err := runOne(p, tracePath, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Host     fingerprint `json:"host"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	// Ops is the number of timed ops, which is also the number of samples
	// behind every median of this run.
	Ops    int    `json:"ops"`
	Result result `json:"result"`
}

// runOne runs one workload once and prints the header and every metric, by
// name and with its unit, to stderr.
func runOne(p params, tracePath string, stderr io.Writer) (record, error) {
	w, _ := workloadByName(p.workload)
	host := hostOnce()
	fmt.Fprintf(stderr, "bench %s seed=%d seconds=%g trace=%v\n", p.workload, p.seed, p.seconds, p.trace)
	fmt.Fprintf(stderr, "host: %s, %d cpus, GOMAXPROCS=%d, %s, commit %s dirty=%v\n",
		host.CPU, host.NumCPU, host.GoMaxProcs, host.GoVersion, host.Commit, host.Dirty)

	var ms *metricSet
	var timed []float64
	var err error
	checks := &meter{}
	if p.trace {
		ms, timed, err = tracedRun(w, p, tracePath, checks, stderr)
	} else {
		ms, timed, err = untracedRun(w, p, checks)
	}
	if err != nil {
		return record{}, err
	}
	ops := len(timed)
	opSummary := summarize(timed)
	if err := ms.complete(); err != nil {
		return record{}, err
	}
	res := result{
		Correct:   checks.failed == 0,
		Attempted: checks.attempted,
		Failed:    checks.failed,
		Metrics:   ms.vals,
	}
	fmt.Fprintf(stderr, "ops timed: %d (samples behind each median); ops attempted incl. warm-up: %d, failed: %d, fail_share %g\n",
		ops, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	if checks.firstFailure != "" {
		fmt.Fprintln(stderr, "first failure:", checks.firstFailure)
	}
	fmt.Fprintln(stderr, opSummary)
	for _, d := range ms.defs {
		fmt.Fprintf(stderr, "  %-38s %16s %s\n", d.name, strconv.FormatFloat(ms.vals[d.name].Value, 'g', 8, 64), d.unit)
	}
	return record{Host: host, Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Trace: p.trace, Ops: ops, Result: res}, nil
}

// untracedRun measures the end-to-end metrics: set-up, repeated for a
// steady setup_s, then the timed phase with tracing off.
func untracedRun(w workload, p params, checks *meter) (*metricSet, []float64, error) {
	var inst instance
	var setups []float64
	budget := sizesFor(p.small).setupBudget
	for begin := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < budget); {
		inst = nil // the previous set-up's state is garbage before the next is built
		start := time.Now()
		var err error
		if inst, err = w.setup(p, checks); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ph := measure(inst, nil, p.seconds)
	heap := liveHeapMB()
	runtime.KeepAlive(inst)
	checks.merge(ph.meter)

	ops := float64(len(ph.opMs))
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", median(setups))
	ms.set("op_p50_ms", median(ph.opMs))
	ms.set("ops_per_s", ops/ph.wallS)
	ms.set("cpu_ms_per_op", ph.cpuMs/ops)
	ms.set("alloc_mb_per_op", ph.allocMB/ops)
	ms.set("live_heap_mb", heap)
	ms.set("mean_cr", ph.meanCR())
	return ms, ph.opMs, nil
}

// tracedRun measures the per-layer metrics: a quarter of the timed phase
// untraced as the reference, the same again with spans, then the probes.
func tracedRun(w workload, p params, tracePath string, checks *meter, log io.Writer) (*metricSet, []float64, error) {
	inst, err := w.setup(p, checks)
	if err != nil {
		return nil, nil, err
	}
	ref := measure(inst, nil, p.seconds/4)
	tr := newTracer()
	ph := measure(inst, tr, p.seconds/4)
	rss := peakRSSMB()
	checks.merge(ref.meter)
	checks.merge(ph.meter)
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, nil, err
	}

	ms := newMetricSet(perLayer)
	self, ops := tr.selfTimes()
	for _, layer := range spanLayers {
		ms.set(layer+".span_ms_per_op", self[layer]/float64(ops))
	}
	ms.set("bench.glue_ms_per_op", self[layerOf(opSpan)]/float64(ops))
	ms.set("bench.traced_op_p50_ms", median(ph.opMs))
	ms.set("bench.trace_overhead_pct", 100*(median(ph.opMs)/median(ref.opMs)-1))
	refOps := float64(len(ref.opMs))
	ms.set("proc.peak_rss_mb", rss)
	ms.set("proc.gc_per_op", float64(ref.gcCycles)/refOps)
	ms.set("proc.gc_pause_us_per_op", float64(ref.gcPause.Nanoseconds())/1e3/refOps)
	inst = nil // the probes measure their own state, not this workload's leftovers
	runtime.GC()
	if err := probes(p, ms, checks, log); err != nil {
		return nil, nil, err
	}
	return ms, ph.opMs, nil
}

// summarize describes the timed ops' wall times with the sample count next
// to the percentiles, leaving out any percentile with fewer than tailSamples
// samples beyond it.
func summarize(opMs []float64) string {
	s := fmt.Sprintf("op wall ms over %d samples: min %.4g, p50 %.4g", len(opMs), slices.Min(opMs), median(opMs))
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if v, ok := percentile(opMs, q); ok {
			s += fmt.Sprintf(", p%g %.4g", 100*q, v)
		}
	}
	return s + fmt.Sprintf(", max %.4g, mean %.4g", slices.Max(opMs), mean(opMs))
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a process of its own, untraced and then
// traced, so no workload sees another's heap, pools or GC pacing. The
// children print their metrics; runAll prints the verdict.
func runAll(p params, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	failed := []string{}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(p.seed, 10),
				"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-trace", trace}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, w.name+" trace="+trace+": "+err.Error())
			}
		}
	}
	for _, f := range failed {
		fmt.Fprintln(stderr, "bench: FAILED", f)
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}
