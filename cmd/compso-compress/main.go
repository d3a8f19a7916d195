// Command compso-compress compresses a raw little-endian float32 file with
// any of the library's gradient compressors and reports the compression
// ratio, error statistics and throughput. With -roundtrip the decompressed
// output is written next to the input for inspection.
//
// Usage:
//
//	compso-compress -in gradient.f32 -method compso -ebf 4e-3 -ebq 4e-3
//	compso-compress -in gradient.f32 -method qsgd -bits 8
//	compso-compress -in gradient.f32 -method powersgd -rank 4 -ef
//	compso-compress -in gradient.f32 -method compso -codec Zstd -out out.bin
//
// Methods are resolved through the compressor registry, so any family in
// compress.Families() works here, with -ef composing error feedback on top.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"compso/internal/compress"
	"compso/internal/encoding"
	"compso/internal/profile"
	"compso/internal/stats"
)

func main() {
	in := flag.String("in", "", "input file of little-endian float32 values (required)")
	out := flag.String("out", "", "optional output file for the compressed buffer")
	roundtrip := flag.String("roundtrip", "", "optional output file for the decompressed float32 values")
	method := flag.String("method", "compso", "compressor family: "+strings.Join(compress.Families(), ", "))
	codecName := flag.String("codec", "ANS", "COMPSO back-end codec (see Table 2)")
	ebf := flag.Float64("ebf", 4e-3, "COMPSO filter error bound (0 disables the filter)")
	ebq := flag.Float64("ebq", 4e-3, "COMPSO quantizer error bound")
	bits := flag.Int("bits", 8, "QSGD/CocktailSGD quantization bits")
	keep := flag.Float64("keep", 0.2, "CocktailSGD keep fraction")
	relEB := flag.Float64("releb", 4e-3, "SZ range-relative error bound")
	rank := flag.Int("rank", 4, "PowerSGD factorization rank")
	ef := flag.Bool("ef", false, "wrap the compressor with an error-feedback residual")
	seed := flag.Int64("seed", 7, "stochastic rounding seed")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fail("%v", err)
	}

	if *in == "" {
		fail("missing -in")
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		fail("read input: %v", err)
	}
	if len(raw)%4 != 0 {
		fail("input length %d is not a multiple of 4", len(raw))
	}
	values := make([]float32, len(raw)/4)
	for i := range values {
		values[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}

	opts := compress.Options{
		Seed:          *seed,
		EBFilter:      *ebf,
		EBQuant:       *ebq,
		Bits:          *bits,
		Keep:          *keep,
		RelEB:         *relEB,
		Rank:          *rank,
		ErrorFeedback: *ef,
	}
	if *ebf <= 0 {
		disabled := false
		opts.Filter = &disabled
	}
	if family, err := compress.CanonicalFamily(*method); err == nil && family == "compso" {
		codec, err := encoding.ByName(*codecName)
		if err != nil {
			fail("%v", err)
		}
		opts.Codec = codec
	}
	comp, err := compress.ByName(*method, opts)
	if err != nil {
		fail("%v", err)
	}

	start := time.Now()
	blob, err := comp.Compress(values)
	if err != nil {
		fail("compress: %v", err)
	}
	compSec := time.Since(start).Seconds()

	start = time.Now()
	restored, err := comp.Decompress(blob)
	if err != nil {
		fail("decompress: %v", err)
	}
	decompSec := time.Since(start).Seconds()

	m := stats.Compare(values, restored)
	inputMB := float64(len(raw)) / 1e6
	fmt.Printf("method:            %s\n", comp.Name())
	fmt.Printf("input:             %d values (%.2f MB)\n", len(values), inputMB)
	fmt.Printf("compressed:        %d bytes\n", len(blob))
	fmt.Printf("compression ratio: %.2fx\n", compress.Ratio(len(values), blob))
	fmt.Printf("compress:          %.1f MB/s\n", inputMB/compSec)
	fmt.Printf("decompress:        %.1f MB/s\n", inputMB/decompSec)
	fmt.Printf("max abs error:     %.3g\n", m.MaxAbs)
	fmt.Printf("mean abs error:    %.3g\n", m.MeanAbs)
	fmt.Printf("PSNR:              %.1f dB\n", m.PSNR)

	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fail("write -out: %v", err)
		}
	}
	if *roundtrip != "" {
		buf := make([]byte, 4*len(restored))
		for i, v := range restored {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if err := os.WriteFile(*roundtrip, buf, 0o644); err != nil {
			fail("write -roundtrip: %v", err)
		}
	}
	profile.Exit(0)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	profile.Exit(1)
}
