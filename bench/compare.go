package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: the bounds.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRecords reads an -out file and keeps its untraced runs, by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule Python's statistics.quantiles(xs, n=4) uses, which is the one
// the driver applies.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // the k-th of four cut points, exclusive method
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// comparableRuns checks that two sets of runs of one workload may be compared:
// same host, same seeds, same run length.
func comparableRuns(a, b []record) error {
	seeds := func(rs []record) []int64 {
		out := make([]int64, len(rs))
		for i, r := range rs {
			out[i] = r.Seed
		}
		slices.Sort(out)
		return out
	}
	sa, sb := seeds(a), seeds(b)
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		return fmt.Errorf("seeds differ: %v and %v", sa, sb)
	}
	for _, r := range append(append([]record(nil), a...), b...) {
		if !r.Host.sameHost(a[0].Host) {
			return fmt.Errorf("hosts differ: %+v and %+v", a[0].Host, r.Host)
		}
		if r.Seconds != a[0].Seconds {
			return fmt.Errorf("run lengths differ: %g s and %g s", a[0].Seconds, r.Seconds)
		}
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric: the
// medians of the runs in a (the parent) and b (the change), b's change
// against the metric's bound, and a verdict. It returns 1 when any row is
// worse or b failed more ops than a, 2 when the files cannot be compared.
func compareFiles(pathA, pathB, benchPath string, w io.Writer) int {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	runsA, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	runsB, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	worse := 0
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread", "bound", "verdict")
	for _, wl := range bf.Workloads {
		a, b := runsA[wl.Name], runsB[wl.Name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(w, "bench: %s: %d runs in %s, %d in %s\n", wl.Name, len(a), pathA, len(b), pathB)
			return 2
		}
		if err := comparableRuns(a, b); err != nil {
			fmt.Fprintf(w, "bench: %s: %v\n", wl.Name, err)
			return 2
		}
		fa, fb := failShare(a), failShare(b)
		if fb > fa {
			fmt.Fprintf(w, "%-20s %-16s %14g %14g %44s\n", wl.Name, "fail_share", fa, fb, "worse: more ops fail")
			worse++
		}
		for _, m := range bf.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			a1, amed, a3 := quartiles(va)
			b1, bmed, b3 := quartiles(vb)
			// change is positive when b is worse, as a share of a's median.
			change := (bmed - amed) / amed
			if m.Better == "higher" {
				change = -change
			}
			spread := max((a3-a1)/amed, (b3-b1)/bmed)
			verdict := "within bound"
			switch {
			case change > m.Bound:
				verdict = "WORSE"
				worse++
			case spread > m.Bound && !allBetter(va, vb, m.Better):
				verdict = "unresolved: spread exceeds bound"
			}
			fmt.Fprintf(w, "%-20s %-16s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				wl.Name, m.Name, amed, bmed, 100*change, 100*spread, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "bench: %d regressions\n", worse)
		return 1
	}
	return 0
}

func values(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Result.Metrics[name].Value
	}
	return out
}

func failShare(rs []record) float64 {
	failed, attempted := 0, 0
	for _, r := range rs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return float64(failed) / float64(attempted)
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
