package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// small runs one workload at the self-test's sizes.
func small(t *testing.T, name string, seed int64, trace bool) record {
	t.Helper()
	p := params{workload: name, seed: seed, seconds: 0.02, trace: trace, small: true}
	rec, err := runOne(p, filepath.Join(t.TempDir(), "trace.json"), io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	return rec
}

// TestTablesMatchBenchmarkJSON holds the Go tables the runs report from
// against BENCHMARK.json, and BENCHMARK.json against the limits its contract
// sets, so neither can drift.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, file []benchMetric, table []metricDef, bounded bool) {
		if len(file) != len(table) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(file), len(table))
		}
		for i, m := range file {
			name(m.Name)
			d := table[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %s: bad unit %q or direction %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %g outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Unit != "s" || bf.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range bf.EndToEnd[1:] {
		if m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestUntracedRuns is the anti-alias self-test: every workload reports each
// end-to-end metric once, finite and non-zero, with the declared unit; no two
// metrics of a run carry the same value; mean_cr repeats exactly for a seed
// and moves with it.
func TestUntracedRuns(t *testing.T) {
	for _, w := range workloads {
		start := time.Now()
		a, again, other := small(t, w.name, 1, false), small(t, w.name, 1, false), small(t, w.name, 2, false)
		t.Logf("%s: three runs in %.2f s", w.name, time.Since(start).Seconds())
		for _, rec := range []record{a, again, other} {
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < rec.Ops || rec.Ops < 1 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d ops=%d", w.name, rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted, rec.Ops)
			}
			if len(rec.Result.Metrics) != len(endToEnd) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(rec.Result.Metrics), len(endToEnd))
			}
			byValue := map[float64]string{}
			for _, d := range endToEnd {
				m, ok := rec.Result.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("%s: %s = %+v (reported %v), want a positive finite value in %s", w.name, d.name, m, ok, d.unit)
				}
				if twin, dup := byValue[m.Value]; dup {
					t.Errorf("%s: %s and %s are bit-equal (%v): one is an alias of the other", w.name, d.name, twin, m.Value)
				}
				byValue[m.Value] = d.name
			}
		}
		cr := func(r record) float64 { return r.Result.Metrics["mean_cr"].Value }
		if cr(a) != cr(again) {
			t.Errorf("%s: mean_cr %v then %v for one seed", w.name, cr(a), cr(again))
		}
		// PowerSGD's ratio is set by the layer shapes alone.
		if cr(a) == cr(other) && w.name != "train_sgd_lowrank" {
			t.Errorf("%s: mean_cr %v for seed 1 and seed 2 alike", w.name, cr(a))
		}
	}
}

// exactPerLayer are the per-layer metrics that are counts or modelled times:
// they must repeat exactly for a seed.
var exactPerLayer = []string{
	"quant.kept_share", "encoding.ans_out_share", "compress.blob_bytes_per_op", "compress.err_over_bound_max",
	"cluster.sim_ms_per_step", "train.final_loss", "train.sim_comm_ms_per_step", "train.hidden_comm_fraction",
	"serve.shed_share", "des.bytes_per_rank", "des.sim_ms_per_step",
}

// TestTracedRuns checks the traced half of every workload: every per-layer
// metric once and finite, a Chrome
// trace that parses, layer self times that add up to the ops' wall time, and
// exact metrics that repeat.
func TestTracedRuns(t *testing.T) {
	var first record
	for i, name := range workloadNames() {
		w, _ := workloadByName(name)
		p := params{workload: name, seed: 1, seconds: 0.02, trace: true, small: true}
		path := filepath.Join(t.TempDir(), "trace.json")
		checks := &meter{}
		ms, _, err := tracedRun(w, p, path, checks, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := ms.complete(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if checks.failed != 0 {
			t.Errorf("%s: %d failures, first: %s", name, checks.failed, checks.firstFailure)
		}

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", name, err)
		}
		var opUs, layerUs float64
		ops := 0
		for _, ev := range trace.TraceEvents {
			if ev.Ph != "X" || ev.Name == "" || ev.Cat != layerOf(ev.Name) || ev.Dur < 0 || ev.Args["op"] == nil {
				t.Fatalf("%s: malformed trace event %+v", name, ev)
			}
			if ev.Name == opSpan {
				ops++
				opUs += ev.Dur
			} else {
				layerUs += ev.Dur
			}
		}
		if len(trace.TraceEvents) == 0 || layerUs < 0.9*opUs || layerUs > opUs {
			t.Errorf("%s: layer spans cover %.0f µs of %.0f µs of ops, want within 10%%", name, layerUs, opUs)
		}
		// Self times per op, summed over the layers and the benchmark's own
		// glue, are the ops' mean wall time: nothing is counted twice or lost.
		sum := ms.vals["bench.glue_ms_per_op"].Value
		for _, layer := range spanLayers {
			sum += ms.vals[layer+".span_ms_per_op"].Value
		}
		if meanMs := opUs / 1e3 / float64(ops); math.Abs(sum-meanMs) > 0.001*meanMs {
			t.Errorf("%s: self times sum to %g ms per op, the ops took %g", name, sum, meanMs)
		}
		if ms.vals["compress.err_over_bound_max"].Value > 1 {
			t.Errorf("%s: compress.err_over_bound_max %g > 1", name, ms.vals["compress.err_over_bound_max"].Value)
		}

		rec := record{Result: result{Metrics: ms.vals}}
		if i == 0 {
			first = rec
			continue
		}
		for _, n := range exactPerLayer {
			if got, want := rec.Result.Metrics[n].Value, first.Result.Metrics[n].Value; got != want {
				t.Errorf("%s: exact metric %s = %v, was %v on the first traced run of the same seed", name, n, got, want)
			}
		}
	}
}

// TestChecksCanFail damages one value behind each kind of correctness check
// and expects the run to count failures and report itself incorrect.
func TestChecksCanFail(t *testing.T) {
	t.Cleanup(func() { corrupt = "" })
	for site, name := range map[string]string{
		corruptDecoded: "codec_4mb",
		corruptLoss:    "train_sgd_lowrank",
		corruptDES:     "des_p4096",
	} {
		corrupt = site
		rec := small(t, name, 1, false)
		if rec.Result.Correct || rec.Result.Failed == 0 {
			t.Errorf("%s with a corrupted %s: correct=%v failed=%d, want a failure", name, site, rec.Result.Correct, rec.Result.Failed)
		}
	}
	corrupt = corruptDecoded
	for _, name := range []string{"exchange_p8", "serve_mix"} {
		if rec := small(t, name, 1, false); rec.Result.Correct || rec.Result.Failed == 0 {
			t.Errorf("%s with a corrupted element: correct=%v failed=%d, want a failure", name, rec.Result.Correct, rec.Result.Failed)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1010)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Error("p99 of 999 samples reported, only 9 lie beyond it")
	}
	if v, ok := percentile(xs[:1000], 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v := median([]float64{4, 1, 3, 2}); v != 2.5 {
		t.Errorf("median = %v, want 2.5", v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(xs[:10]); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	host := fingerprint{CPU: "test", NumCPU: 2, GoMaxProcs: 2, GoVersion: "go"}
	write := func(file string, host fingerprint, seeds []int64, scale map[string]float64, failed int) string {
		path := filepath.Join(dir, file)
		for _, w := range workloads {
			for i, seed := range seeds {
				ms := map[string]metric{}
				for _, d := range endToEnd {
					v := 100 * (1 + 0.001*float64(i)) // a little spread
					if s, ok := scale[d.name]; ok && w.name == "serve_mix" {
						v *= s
					}
					ms[d.name] = metric{Value: v, Unit: d.unit}
				}
				rec := record{Host: host, Workload: w.name, Seed: seed, Seconds: 10,
					Result: result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: ms}}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	seeds := []int64{1, 2, 3, 4, 5}
	base := write("a.jsonl", host, seeds, nil, 0)
	for _, tc := range []struct {
		name string
		path string
		want int
		says string
	}{
		{"same", write("same.jsonl", host, seeds, nil, 0), 0, "within bound"},
		{"slower", write("slow.jsonl", host, seeds, map[string]float64{"op_p50_ms": 1.4}, 0), 1, "WORSE"},
		{"faster", write("fast.jsonl", host, seeds, map[string]float64{"op_p50_ms": 0.5}, 0), 0, "within bound"},
		{"lower-is-worse", write("cr.jsonl", host, seeds, map[string]float64{"mean_cr": 0.9}, 0), 1, "WORSE"},
		{"failures", write("fail.jsonl", host, seeds, nil, 1), 1, "more ops fail"},
		{"other-seeds", write("seeds.jsonl", host, []int64{1, 2, 3, 4, 6}, nil, 0), 2, "seeds differ"},
		{"other-host", write("host.jsonl", fingerprint{CPU: "other", NumCPU: 2, GoMaxProcs: 2, GoVersion: "go"}, seeds, nil, 0), 2, "hosts differ"},
	} {
		var out strings.Builder
		if got := compareFiles(base, tc.path, "../BENCHMARK.json", &out); got != tc.want || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, got, tc.want, tc.says, out.String())
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "codec_4mb", "--seconds", "0"},
		{"--compare", "only-one.jsonl"},
	} {
		if got := cli(args, io.Discard, io.Discard); got != 2 {
			t.Errorf("bench %v: exit %d, want 2", args, got)
		}
	}
}
