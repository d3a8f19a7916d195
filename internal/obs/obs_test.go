package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestSpanLifecycle(t *testing.T) {
	r := NewRecorder()
	step := r.StartSpan(0, 0, CatStep, "iter", 1.0)
	if step == 0 {
		t.Fatal("StartSpan returned 0 on enabled recorder")
	}
	phase := r.StartSpan(step, 0, CatPhase, "grad-sync", 1.0)
	r.Span(phase, 0, CatCollective, "allreduce", 1.0, 1.5,
		Attrs{Algorithm: "ring", Label: "grad-allreduce", BytesIn: 4096, Layer: -1, Peer: -1, Step: -1})
	r.EndSpan(phase, 1.5)
	r.EndSpan(step, 2.0)

	snap := r.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("%d spans", len(snap.Spans))
	}
	byCat := snap.SpanSeconds()
	if byCat[CatStep] != 1.0 || byCat[CatPhase] != 0.5 || byCat[CatCollective] != 0.5 {
		t.Fatalf("span seconds %v", byCat)
	}
	colls := snap.SpansFor(CatCollective)
	if len(colls) != 1 || colls[0].Parent == 0 || colls[0].Attrs.Algorithm != "ring" {
		t.Fatalf("collective span %+v", colls)
	}
	alg := snap.AlgSeconds()
	if math.Abs(alg["allreduce/ring"]-0.5) > 1e-15 {
		t.Fatalf("AlgSeconds %v", alg)
	}
}

func TestEndSpanClampsAndIgnoresUnknown(t *testing.T) {
	r := NewRecorder()
	id := r.StartSpan(0, 0, CatStep, "iter", 5.0)
	r.EndSpan(id, 4.0) // end before start: clamp
	r.EndSpan(id, 9.0) // already closed: ignored
	r.EndSpan(12345, 9.0)
	r.EndSpan(0, 9.0)
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Duration() != 0 {
		t.Fatalf("spans %+v", snap.Spans)
	}
}

func TestSpanCapDrops(t *testing.T) {
	r := NewRecorder(WithMaxSpans(2))
	for i := 0; i < 5; i++ {
		r.Span(0, 0, CatStep, "s", float64(i), float64(i+1), NoAttrs)
	}
	if r.SpanCount() != 2 || r.DroppedSpans() != 3 {
		t.Fatalf("count %d dropped %d", r.SpanCount(), r.DroppedSpans())
	}
}

func TestMetrics(t *testing.T) {
	r := NewRecorder()
	c := r.Counter("wire/bytes")
	c.Add(100)
	c.Inc()
	if c.Value() != 101 {
		t.Fatalf("counter %g", c.Value())
	}
	if r.Counter("wire/bytes") != c {
		t.Fatal("counter not memoized")
	}
	g := r.Gauge("eb")
	g.Set(4e-3)
	if g.Value() != 4e-3 {
		t.Fatalf("gauge %g", g.Value())
	}
	h := r.Histogram("ratio")
	for _, v := range []float64{2, 4, 8, 32} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["ratio"]
	if hs.Count != 4 || hs.Min != 2 || hs.Max != 32 || math.Abs(hs.Mean-11.5) > 1e-12 {
		t.Fatalf("histogram %+v", hs)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Fatalf("bucket counts %v", hs.Buckets)
	}
	if snap.Counters["wire/bytes"] != 101 || snap.Gauges["eb"] != 4e-3 {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-1)
	h.Observe(math.Inf(1))
	h.Observe(math.NaN())
	h.Observe(1e300) // overflow bucket
	if h.count != 5 {
		t.Fatalf("count %d", h.count)
	}
	if got := histBucket(1.0); BucketBound(got) != 1.0 {
		t.Fatalf("bucket for 1.0 has bound %g", BucketBound(got))
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < 200; i++ {
				id := r.StartSpan(0, rank, CatStep, "iter", float64(i))
				r.EndSpan(id, float64(i+1))
				c.Inc()
				r.Histogram("h").Observe(float64(i))
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap.Spans) != 8*200 {
		t.Fatalf("%d spans", len(snap.Spans))
	}
	if snap.Counters["shared"] != 8*200 {
		t.Fatalf("counter %g", snap.Counters["shared"])
	}
}

func TestChromeTraceExportAndValidate(t *testing.T) {
	r := NewRecorder(WithTransferSpans(true))
	step := r.StartSpan(0, 0, CatStep, "iter", 0)
	r.Span(step, 0, CatCollective, "allgather", 0.0, 0.2,
		Attrs{Algorithm: "hierarchical", BytesIn: 1 << 20, Layer: -1, Peer: -1, Step: -1})
	r.Span(step, 0, CatTransfer, "allgather", 0.01, 0.05,
		Attrs{Algorithm: "hierarchical", Link: "inter", Peer: 1, Step: 0, BytesIn: 4096, Layer: -1})
	r.Instant(step, 0, CatControl, "strategy-switch", 0.1, NoAttrs)
	r.EndSpan(step, 0.3)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("self-emitted trace invalid: %v", err)
	}
	// Structural checks on the emitted JSON.
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var xEvents, iEvents, mEvents, linkEvents int
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
		case "i":
			iEvents++
		case "M":
			mEvents++
		}
		if ev["pid"].(float64) == chromePidLinks && ev["ph"] != "M" {
			linkEvents++
		}
	}
	if xEvents != 3 || iEvents != 1 || mEvents < 3 || linkEvents != 1 {
		t.Fatalf("X=%d i=%d M=%d links=%d", xEvents, iEvents, mEvents, linkEvents)
	}
}

func TestValidateChromeTraceRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name string
		blob string
	}{
		{"not json", `{`},
		{"no traceEvents", `{}`},
		{"missing name", `{"traceEvents":[{"ph":"X","ts":0,"pid":0,"tid":0,"dur":1}]}`},
		{"missing ph", `{"traceEvents":[{"name":"a","ts":0,"pid":0,"tid":0}]}`},
		{"missing ts", `{"traceEvents":[{"name":"a","ph":"X","pid":0,"tid":0,"dur":1}]}`},
		{"negative ts", `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"pid":0,"tid":0,"dur":1}]}`},
		{"no dur on X", `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}]}`},
		{"negative dur", `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0,"tid":0,"dur":-2}]}`},
		{"non-monotonic", `{"traceEvents":[
			{"name":"a","ph":"X","ts":5,"pid":0,"tid":0,"dur":1},
			{"name":"b","ph":"X","ts":4,"pid":0,"tid":0,"dur":1}]}`},
	}
	for _, tc := range cases {
		if err := ValidateChromeTrace([]byte(tc.blob)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	ok := `{"traceEvents":[
		{"name":"m","ph":"M","ts":0,"pid":0,"tid":0},
		{"name":"a","ph":"X","ts":0,"pid":0,"tid":0,"dur":3},
		{"name":"b","ph":"i","ts":2,"pid":0,"tid":0}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestMetricsExports(t *testing.T) {
	r := NewRecorder()
	r.Counter("wire/bytes").Add(1024)
	r.Gauge("controller/eb_quant").Set(4e-3)
	r.Histogram("compress/ratio").Observe(22.1)
	r.Span(0, 0, CatCompress, "COMPSO", 0, 0.5, NoAttrs)

	var jsonBuf bytes.Buffer
	if err := r.WriteMetricsJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"counters", "gauges", "histograms", "span_seconds", "span_count"} {
		if _, ok := dump[key]; !ok {
			t.Fatalf("metrics JSON missing %q: %v", key, dump)
		}
	}

}

func TestReconcileAlgSeconds(t *testing.T) {
	base := map[string]float64{"allgather/ring": 1.0, "allreduce/hierarchical": 2.0}
	within := map[string]float64{"allgather/ring": 1.005, "allreduce/hierarchical": 2.0}
	if err := ReconcileAlgSeconds(within, base, 0.01); err != nil {
		t.Fatalf("1%% tolerance rejected 0.5%% drift: %v", err)
	}
	outside := map[string]float64{"allgather/ring": 1.1, "allreduce/hierarchical": 2.0}
	if err := ReconcileAlgSeconds(outside, base, 0.01); err == nil {
		t.Fatal("10% drift reconciled")
	}
	missing := map[string]float64{"allreduce/hierarchical": 2.0}
	if err := ReconcileAlgSeconds(missing, base, 0.01); err == nil {
		t.Fatal("missing key reconciled")
	}
	negligible := map[string]float64{"allgather/ring": 1.0, "barrier/x": 1e-15}
	if err := ReconcileAlgSeconds(negligible, map[string]float64{"allgather/ring": 1.0}, 0.01); err != nil {
		t.Fatalf("negligible key rejected: %v", err)
	}
}

// TestDisabledRecorderZeroAlloc is the zero-cost-when-disabled contract:
// the full per-iteration instrumentation sequence on a nil recorder must
// not allocate. This is the assertion backing the acceptance criterion
// that tier-1 hot-path timings are unaffected with Obs disabled.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		step := r.StartSpan(0, 0, CatStep, "iter", 1.0)
		phase := r.StartSpan(step, 0, CatPhase, "grad-sync", 1.0)
		r.Span(phase, 0, CatCollective, "allreduce", 1.0, 1.5,
			Attrs{Algorithm: "ring", BytesIn: 4096, Layer: -1, Peer: -1, Step: -1})
		r.Instant(phase, 0, CatControl, "strategy-switch", 1.2, NoAttrs)
		r.EndSpanAttrs(phase, 1.5, NoAttrs)
		r.EndSpan(step, 2.0)
		r.Counter("wire/bytes").Add(4096)
		r.Gauge("eb").Set(4e-3)
		r.Histogram("ratio").Observe(22.1)
		if r.TransferSpans() || r.Enabled() {
			t.Fatal("nil recorder claims to be enabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkDisabledRecorder reports the per-op overhead of the disabled
// instrumentation path (expected: a few ns, 0 allocs/op).
func BenchmarkDisabledRecorder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		step := r.StartSpan(0, 0, CatStep, "iter", 1.0)
		r.Span(step, 0, CatCollective, "allreduce", 1.0, 1.5, NoAttrs)
		r.EndSpan(step, 2.0)
		r.Counter("wire/bytes").Add(4096)
		r.Histogram("ratio").Observe(22.1)
	}
}

// BenchmarkEnabledRecorder reports the cost of the enabled path.
func BenchmarkEnabledRecorder(b *testing.B) {
	r := NewRecorder(WithMaxSpans(1 << 26))
	c := r.Counter("wire/bytes")
	h := r.Histogram("ratio")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := r.StartSpan(0, 0, CatStep, "iter", 1.0)
		r.Span(step, 0, CatCollective, "allreduce", 1.0, 1.5, NoAttrs)
		r.EndSpan(step, 2.0)
		c.Add(4096)
		h.Observe(22.1)
	}
}
