// Top-level benchmarks: one per table and figure of the paper's evaluation
// (regenerating the same rows/series), plus per-compressor micro-benchmarks
// on K-FAC gradient data.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The convergence benchmarks (Figure 3, Figure 6, Table 1) train proxy
// models and are intentionally run at reduced iteration budgets here; use
// cmd/compso-bench for paper-scale budgets.
package compso_test

import (
	"testing"

	"compso"
	"compso/internal/compress"
	"compso/internal/experiments"
	"compso/internal/xrand"
)

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Figure1()
		if len(rows) != 12 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure3(30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _ := experiments.Figure5()
		if len(results) != 6 {
			b.Fatalf("%d results", len(results))
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure6(20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table1(30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure8(false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGradient returns a 1M-element synthetic K-FAC gradient.
func benchGradient() []float32 {
	src := make([]float32, 1<<20)
	xrand.KFACGradient(xrand.NewSeeded(3), src, 1.0)
	return src
}

func benchCompressor(b *testing.B, c compso.Compressor) {
	b.Helper()
	src := benchGradient()
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	var blob []byte
	for i := 0; i < b.N; i++ {
		var err error
		blob, err = c.Compress(src)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(compso.Ratio(len(src), blob), "CR")
}

func BenchmarkCompressCOMPSO(b *testing.B) { benchCompressor(b, compso.New(compso.WithSeed(1))) }
func BenchmarkCompressQSGD8(b *testing.B) {
	benchCompressor(b, mustCompressor(b, "qsgd", compso.WithBits(8), compso.WithSeed(2)))
}
func BenchmarkCompressSZ(b *testing.B) {
	benchCompressor(b, mustCompressor(b, "sz", compso.WithRelErrorBound(4e-3)))
}
func BenchmarkCompressCocktail(b *testing.B) {
	benchCompressor(b, mustCompressor(b, "cocktail", compso.WithKeepFraction(0.2), compso.WithBits(8), compso.WithSeed(4)))
}

// BenchmarkCompressCOMPSOReference measures the preserved multi-pass COMPSO
// pipeline (the pre-fusion implementation in internal/compress/reference.go)
// on the same input as BenchmarkCompressCOMPSO — the before/after pair of
// the kernel-fusion claim (DESIGN.md §5). Host-time numbers that gate a
// change come from bench/ (BENCHMARK.json), not from these.
func BenchmarkCompressCOMPSOReference(b *testing.B) {
	c := compress.NewCOMPSO(1)
	src := benchGradient()
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReferenceCompress(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressCOMPSO(b *testing.B) {
	c := compso.New(compso.WithSeed(5))
	src := benchGradient()
	blob, err := c.Compress(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressCOMPSOReference is the multi-pass decode half of the
// before/after pair (plane join, dequantize and filter-restore each through
// their own materialized buffer).
func BenchmarkDecompressCOMPSOReference(b *testing.B) {
	c := compress.NewCOMPSO(5)
	src := benchGradient()
	blob, err := c.Compress(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReferenceDecompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecANSOnGradientPlanes(b *testing.B) {
	// The hot path of COMPSO's back-end: ANS over the low byte plane of
	// quantized gradients.
	codec, err := compso.CodecByName("ANS")
	if err != nil {
		b.Fatal(err)
	}
	src := benchGradient()
	plane := make([]byte, len(src))
	for i, v := range src {
		plane[i] = byte(int32(v / 4e-3))
	}
	b.SetBytes(int64(len(plane)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := codec.Encode(plane)
		if _, err := codec.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}
