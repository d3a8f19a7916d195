package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"compso/internal/compress"
	"compso/internal/encoding"
	"compso/internal/quant"
	"compso/internal/xrand"
)

// This file is the benchmark-trajectory harness behind "compso-bench perf":
// wall-clock and allocation measurements of the fused single-pass kernels
// against the preserved multi-pass reference pipelines (§4.5's kernel-fusion
// claim, Figure 8's pipeline-shape comparison), per back-end codec and per
// pipeline stage, emitted as a machine-readable report that CI validates.

// PerfSchema identifies the bench-perf JSON format.
const PerfSchema = "compso/bench-perf/v1"

// PerfRow is one benchmark's measurement.
type PerfRow struct {
	// Name identifies the benchmark, e.g. "compso/fused/compress".
	Name string `json:"name"`
	// Group is the comparison family: "pipeline", "stage" or "codec".
	Group string `json:"group"`
	// NsPerOp is mean wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is mean heap bytes allocated per operation.
	BytesPerOp float64 `json:"b_per_op"`
	// AllocsPerOp is mean heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MBPerSec is input megabytes processed per second.
	MBPerSec float64 `json:"mb_per_s"`
}

// PerfReport is the full harness output.
type PerfReport struct {
	Schema     string    `json:"schema"`
	Quick      bool      `json:"quick"`
	Elements   int       `json:"elements"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Rows       []PerfRow `json:"rows"`
	// Speedups holds reference-over-fused wall-clock ratios for the paired
	// pipelines, e.g. Speedups["compso/compress"] = reference ns / fused ns.
	Speedups map[string]float64 `json:"speedups"`
}

// perfMeasure times fn on one thread: a warm-up call, round calibration to
// the target duration, then a timed loop bracketed by ReadMemStats for
// per-op allocation accounting.
func perfMeasure(name, group string, inBytes int, target time.Duration, fn func() error) (PerfRow, error) {
	if err := fn(); err != nil { // warm-up: populate arenas, fault early
		return PerfRow{}, fmt.Errorf("%s: %w", name, err)
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return PerfRow{}, fmt.Errorf("%s: %w", name, err)
	}
	est := time.Since(t0)
	rounds := 3
	if est > 0 {
		if r := int(target / est); r > rounds {
			rounds = r
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := fn(); err != nil {
			return PerfRow{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds()) / float64(rounds)
	row := PerfRow{
		Name:        name,
		Group:       group,
		NsPerOp:     ns,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(rounds),
	}
	if ns > 0 {
		row.MBPerSec = float64(inBytes) / (ns / 1e9) / 1e6
	}
	return row, nil
}

// RunPerf executes the harness. quick shrinks the input and the per-bench
// measurement budget for CI smoke runs; the comparisons stay the same.
func RunPerf(quick bool) (*PerfReport, error) {
	n := 1 << 20
	target := 400 * time.Millisecond
	if quick {
		n = 1 << 17
		target = 50 * time.Millisecond
	}
	src := make([]float32, n)
	xrand.KFACGradient(xrand.NewSeeded(3), src, 1.0)
	inBytes := 4 * n

	rep := &PerfReport{
		Schema:     PerfSchema,
		Quick:      quick,
		Elements:   n,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Speedups:   map[string]float64{},
	}
	add := func(name, group string, bytes int, fn func() error) error {
		row, err := perfMeasure(name, group, bytes, target, fn)
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, row)
		return nil
	}

	// Pipeline group: fused single-pass vs preserved multi-pass reference,
	// single-threaded, plus the parallel chunked wrapper.
	fused := compress.NewCOMPSO(3)
	ref := compress.NewCOMPSO(3)
	blob, err := fused.Compress(src)
	if err != nil {
		return nil, err
	}
	pipeline := []struct {
		name string
		fn   func() error
	}{
		{"compso/fused/compress", func() error { _, err := fused.Compress(src); return err }},
		{"compso/reference/compress", func() error { _, err := ref.ReferenceCompress(src); return err }},
		{"compso/fused/decompress", func() error { _, err := fused.Decompress(blob); return err }},
		{"compso/reference/decompress", func() error { _, err := ref.ReferenceDecompress(blob); return err }},
	}
	sz := compress.NewSZ(4e-3)
	pipeline = append(pipeline,
		struct {
			name string
			fn   func() error
		}{"sz/fused/compress", func() error { _, err := sz.Compress(src); return err }},
		struct {
			name string
			fn   func() error
		}{"sz/reference/compress", func() error { _, err := sz.ReferenceCompress(src); return err }},
	)
	qf, qr := compress.NewQSGD(8, 5), compress.NewQSGD(8, 5)
	tq := compress.NewTorchQSGD(8, 5)
	pipeline = append(pipeline,
		struct {
			name string
			fn   func() error
		}{"qsgd/fused/compress", func() error { _, err := qf.Compress(src); return err }},
		struct {
			name string
			fn   func() error
		}{"qsgd/reference/compress", func() error { _, err := qr.ReferenceCompress(src); return err }},
		struct {
			name string
			fn   func() error
		}{"torchqsgd/compress", func() error { _, err := tq.Compress(src); return err }},
	)
	chunked := &compress.Chunked{
		New:       func(seed int64) compress.Compressor { return compress.NewCOMPSO(seed) },
		ChunkSize: 1 << 16,
	}
	cblob, err := chunked.Compress(src)
	if err != nil {
		return nil, err
	}
	pipeline = append(pipeline,
		struct {
			name string
			fn   func() error
		}{"chunked-compso/compress", func() error { _, err := chunked.Compress(src); return err }},
		struct {
			name string
			fn   func() error
		}{"chunked-compso/decompress", func() error { _, err := chunked.Decompress(cblob); return err }},
	)
	// The low-rank family: rank-4 PowerSGD with warm-started queries — the
	// GEMM-shaped pipeline the ring-all-reduce path charges.
	ps := compress.NewPowerSGD(4, 7)
	pblob, err := ps.Compress(src)
	if err != nil {
		return nil, err
	}
	pipeline = append(pipeline,
		struct {
			name string
			fn   func() error
		}{"powersgd/compress", func() error { _, err := ps.Compress(src); return err }},
		struct {
			name string
			fn   func() error
		}{"powersgd/decompress", func() error { _, err := ps.Decompress(pblob); return err }},
	)
	for _, p := range pipeline {
		if err := add(p.name, "pipeline", inBytes, p.fn); err != nil {
			return nil, err
		}
	}

	// Stage group: the fused kernel's constituent stages in isolation.
	binW := quant.BinWidth(4e-3, quant.SR)
	rng := xrand.NewSeeded(9)
	bitmap := make([]byte, (n+7)/8)
	zigs := make([]uint32, n)
	kept, maxZig := quant.FilterQuantizeZig(bitmap, zigs, src, 4e-3, binW, quant.SR, rng)
	plane := make([]byte, kept)
	quant.FillPlane(plane, zigs[:kept], 0)
	packBuf := make([]byte, 0, n)
	encBuf := make([]byte, 0, n)
	decScratch := make([]byte, kept)
	encoded := encoding.ANS{}.Encode(plane)
	stages := []struct {
		name  string
		bytes int
		fn    func() error
	}{
		{"stage/filter-quantize", inBytes, func() error {
			quant.FilterQuantizeZig(bitmap, zigs, src, 4e-3, binW, quant.SR, rng)
			return nil
		}},
		{"stage/pack", 4 * kept, func() error {
			packBuf = quant.PackZigs(packBuf[:0], zigs[:kept], maxZig)
			return nil
		}},
		{"stage/entropy-encode", kept, func() error {
			encBuf = encoding.ANS{}.EncodeAppend(encBuf[:0], plane)
			return nil
		}},
		{"stage/entropy-decode", kept, func() error {
			_, err := encoding.ANS{}.DecodeInto(decScratch, encoded)
			return err
		}},
	}
	for _, s := range stages {
		if err := add(s.name, "stage", s.bytes, s.fn); err != nil {
			return nil, err
		}
	}

	// Codec group: every registered back-end (plus Huffman, SZ's entropy
	// stage) over the low byte plane of the quantized gradient — the symbol
	// distribution the paper's codec comparison runs on.
	codecs := []encoding.Codec{encoding.Huffman{}}
	for _, name := range encoding.Names() {
		c, err := encoding.ByName(name)
		if err != nil {
			return nil, err
		}
		codecs = append(codecs, c)
	}
	for _, c := range codecs {
		c := c
		enc := c.Encode(plane)
		if err := add("codec/"+strings.ToLower(c.Name())+"/encode", "codec", kept, func() error {
			c.Encode(plane)
			return nil
		}); err != nil {
			return nil, err
		}
		if err := add("codec/"+strings.ToLower(c.Name())+"/decode", "codec", kept, func() error {
			_, err := c.Decode(enc)
			return err
		}); err != nil {
			return nil, err
		}
	}

	// Serve group: end-to-end rows through the compso-serve HTTP data plane.
	if err := runServePerf(quick, add, rep); err != nil {
		return nil, err
	}

	// Overlap group: engine-predicted K-FAC step time per modelzoo profile
	// under the sequential and the pipelined schedule (train/step.go).
	if err := runOverlapPerf(quick, rep); err != nil {
		return nil, err
	}

	for _, pair := range [][2]string{
		{"compso/compress", "compso"},
		{"compso/decompress", "compso"},
		{"sz/compress", "sz"},
		{"qsgd/compress", "qsgd"},
	} {
		op := pair[0][strings.IndexByte(pair[0], '/')+1:]
		f := rep.row(pair[1] + "/fused/" + op)
		r := rep.row(pair[1] + "/reference/" + op)
		if f != nil && r != nil && f.NsPerOp > 0 {
			rep.Speedups[pair[0]] = r.NsPerOp / f.NsPerOp
		}
	}
	return rep, nil
}

// MarshalIndent renders the report as the committed, CI-validated JSON file.
func (r *PerfReport) MarshalIndent() ([]byte, error) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// row finds a named row, or nil.
func (r *PerfReport) row(name string) *PerfRow {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render formats the report as an aligned text table.
func (r *PerfReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench-perf (%d elements, GOMAXPROCS=%d, quick=%v)\n", r.Elements, r.GoMaxProcs, r.Quick)
	fmt.Fprintf(&b, "%-32s %14s %14s %12s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op", "MB/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-32s %14.0f %14.0f %12.1f %12.1f\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.MBPerSec)
	}
	keys := make([]string, 0, len(r.Speedups))
	for k := range r.Speedups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "speedup %-24s %6.2fx (reference / fused)\n", k, r.Speedups[k])
	}
	return b.String()
}

// ValidatePerf checks that blob is a structurally sound bench-perf report:
// right schema, non-empty finite rows, and the headline COMPSO speedup pair
// present. CI's bench-smoke job runs it against the freshly generated file.
func ValidatePerf(blob []byte) error {
	var r PerfReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return fmt.Errorf("bench-perf: %w", err)
	}
	if r.Schema != PerfSchema {
		return fmt.Errorf("bench-perf: schema %q, want %q", r.Schema, PerfSchema)
	}
	if r.Elements <= 0 || r.GoMaxProcs <= 0 {
		return fmt.Errorf("bench-perf: bad environment (elements=%d gomaxprocs=%d)", r.Elements, r.GoMaxProcs)
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("bench-perf: no rows")
	}
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if row.Name == "" || row.Group == "" {
			return fmt.Errorf("bench-perf: row with empty name/group")
		}
		if seen[row.Name] {
			return fmt.Errorf("bench-perf: duplicate row %q", row.Name)
		}
		seen[row.Name] = true
		for _, v := range []float64{row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.MBPerSec} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("bench-perf: row %q has non-finite or negative metric", row.Name)
			}
		}
		if row.NsPerOp == 0 {
			return fmt.Errorf("bench-perf: row %q has zero ns/op", row.Name)
		}
	}
	for _, k := range []string{"compso/compress", "compso/decompress"} {
		v, ok := r.Speedups[k]
		if !ok {
			return fmt.Errorf("bench-perf: missing speedup %q", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("bench-perf: speedup %q = %g", k, v)
		}
	}
	return nil
}
