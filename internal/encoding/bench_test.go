package encoding

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"compso/internal/quant"
	"compso/internal/xrand"
)

// gradientPlane builds a byte stream with the skewed distribution of a
// quantized-gradient low byte plane — the codecs' production workload.
func gradientPlane(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := make([]byte, n)
	for i := range out {
		v := 0
		for rng.Float64() < 0.55 && v < 255 {
			v++
		}
		out[i] = byte(v)
	}
	return out
}

// kfacStreams returns the two streams rANS spends its time on in compso:
// the filter bitmap and plane 0 of a K-FAC gradient after the default filter
// and SR quantizer (about one element in seven is kept). gradientPlane is
// 2.2 bits a symbol; these are about 7 and 5.8, and the bitmap is a quarter
// 0xFF.
func kfacStreams(elems int, seed int64) (bitmap, plane []byte) {
	x := make([]float32, elems)
	xrand.KFACGradient(xrand.NewSeeded(seed), x, 1)
	bitmap = make([]byte, (elems+7)/8)
	zigs := make([]uint32, elems)
	const eb = 4e-3
	kept, _ := quant.FilterQuantizeZigPCG(bitmap, zigs, x, eb, quant.BinWidth(eb, quant.SR), xrand.NewPCG(seed))
	plane = make([]byte, kept)
	quant.FillPlane(plane, zigs[:kept], 0)
	return bitmap, plane
}

// benchANS runs fn on gradientPlane and on the K-FAC plane and bitmap at
// 4 KiB (layout 1, and its best case: a stream this short, coded again and
// again, teaches the branch predictor its renormalization pattern), 32 KiB
// (ansInterleaveMin) and 152 KiB (plane 0 of a 4 MB tensor).
func benchANS(b *testing.B, fn func(b *testing.B, c Codec, src []byte)) {
	b.Run("synthetic/1MiB", func(b *testing.B) { fn(b, ANS{}, gradientPlane(1<<20, 7)) })
	bitmap, plane := kfacStreams(1<<21, 7)
	for _, kib := range []int{4, 32, 152} {
		b.Run(fmt.Sprintf("plane/%dKiB", kib), func(b *testing.B) { fn(b, ANS{}, plane[:kib<<10]) })
		b.Run(fmt.Sprintf("bitmap/%dKiB", kib), func(b *testing.B) { fn(b, ANS{}, bitmap[:kib<<10]) })
	}
}

func benchEncode(b *testing.B, c Codec) { benchEncodeSrc(b, c, gradientPlane(1<<20, 7)) }
func benchDecode(b *testing.B, c Codec) { benchDecodeSrc(b, c, gradientPlane(1<<20, 7)) }

func benchEncodeSrc(b *testing.B, c Codec, src []byte) {
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	var enc []byte
	for i := 0; i < b.N; i++ {
		enc = c.EncodeAppend(enc[:0], src)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(src))/float64(len(enc)), "CR")
}

func benchDecodeSrc(b *testing.B, c Codec, src []byte) {
	enc := c.EncodeAppend(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeInto(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeANS(b *testing.B)      { benchANS(b, benchEncodeSrc) }
func BenchmarkEncodeBitcomp(b *testing.B)  { benchEncode(b, Bitcomp{}) }
func BenchmarkEncodeCascaded(b *testing.B) { benchEncode(b, Cascaded{}) }
func BenchmarkEncodeDeflate(b *testing.B)  { benchEncode(b, Deflate{}) }
func BenchmarkEncodeGdeflate(b *testing.B) { benchEncode(b, Gdeflate{}) }
func BenchmarkEncodeLZ4(b *testing.B)      { benchEncode(b, LZ4{}) }
func BenchmarkEncodeSnappy(b *testing.B)   { benchEncode(b, Snappy{}) }
func BenchmarkEncodeZstd(b *testing.B)     { benchEncode(b, Zstd{}) }
func BenchmarkEncodeHuffman(b *testing.B)  { benchEncode(b, Huffman{}) }

func BenchmarkDecodeANS(b *testing.B)     { benchANS(b, benchDecodeSrc) }
func BenchmarkDecodeBitcomp(b *testing.B) { benchDecode(b, Bitcomp{}) }
func BenchmarkDecodeLZ4(b *testing.B)     { benchDecode(b, LZ4{}) }
func BenchmarkDecodeZstd(b *testing.B)    { benchDecode(b, Zstd{}) }
