// Package gpusim models the GPU-side cost of the compression pipelines
// (§4.5, Figures 8–9). The paper's architectural argument is that gradient
// compression is O(n) memory-bound work, so kernel time is governed by
// global-memory traffic plus per-kernel launch overhead:
//
//	time = launches·overhead + (bytes moved)/(effective HBM bandwidth)
//
// Fusing the filter/quantizer/encoder kernels (and computing extrema with a
// block-reduce + warp-shuffle hierarchy) removes intermediate global-memory
// round trips, which is exactly why the fused "CUDA" pipelines beat the
// kernel-per-op "PyTorch" pipelines in Figure 8. The pipeline definitions
// below encode each implementation's pass structure; the device constants
// are calibrated to A100-class hardware.
package gpusim

import "fmt"

// Device models a GPU for the roofline estimate.
type Device struct {
	Name string
	// MemBW is the effective global-memory bandwidth available to the
	// irregular, byte-oriented compression kernels in bytes/second. This is
	// far below the HBM peak: bitmap writes and gather/scatter patterns
	// waste transactions.
	MemBW float64
	// LaunchOverhead is the per-kernel launch latency in seconds.
	LaunchOverhead float64
	// SortPassFactor scales the extra passes a device-wide sort costs per
	// log₂(n) step (CocktailSGD's top-k).
	SortPassFactor float64
}

// A100 returns the device model used in the paper's GPU experiments.
func A100() Device {
	return Device{Name: "A100", MemBW: 400e9, LaunchOverhead: 6e-6, SortPassFactor: 0.35}
}

// Pipeline describes one compression implementation's execution shape.
type Pipeline struct {
	Name string
	// Launches is the number of kernel launches per invocation.
	Launches int
	// PassBytesPerElem is the global-memory traffic in bytes per input
	// element across all passes (reads + writes, intermediates included).
	PassBytesPerElem float64
	// SortN adds a device sort over the input (log₂ n extra passes scaled
	// by the device's SortPassFactor).
	SortN bool
}

// The Figure 8 pipeline set. Input elements are FP32 (4 bytes).

// COMPSOFused is the paper's implementation: one extrema pass using
// hierarchical block reduction (read 4 B/elem), then one fused
// filter+SR+pack+encode pass (read 4 B, write ~0.5 B of bitmap+codes).
func COMPSOFused() Pipeline {
	return Pipeline{Name: "COMPSO (CUDA)", Launches: 2, PassBytesPerElem: 8.5}
}

// QSGDCUDA is the authors' fused CUDA QSGD: extrema pass + one
// quantize+encode pass. No filter/bitmap work, so it moves slightly fewer
// bytes than COMPSO — the paper notes its throughput exceeds COMPSO's
// (Figure 8) at a lower compression ratio.
func QSGDCUDA() Pipeline {
	return Pipeline{Name: "QSGD (CUDA)", Launches: 2, PassBytesPerElem: 8.2}
}

// SZCUDA is cuSZ: prediction+quantization pass, histogram pass, and a
// Huffman encode pass with codebook construction.
func SZCUDA() Pipeline {
	return Pipeline{Name: "SZ (CUDA)", Launches: 3, PassBytesPerElem: 13}
}

// QSGDTorch is QSGD expressed as framework tensor ops: abs, max, div,
// round, clamp, cast, pack — each a kernel reading and writing full FP32
// tensors (8 B/elem per pass).
func QSGDTorch() Pipeline {
	return Pipeline{Name: "QSGD (PyTorch)", Launches: 7, PassBytesPerElem: 7 * 8}
}

// CocktailTorch is CocktailSGD in the framework: random-sample threshold
// estimation (cheap), then masking, compaction and quantization passes each
// materialized as separate tensor ops. The sampling shortcut avoids a
// device-wide sort, but the pass count still makes it the slowest pipeline
// in Figure 8.
func CocktailTorch() Pipeline {
	return Pipeline{Name: "CocktailSGD (PyTorch)", Launches: 9, PassBytesPerElem: 8.5 * 8}
}

// PowerSGDGEMM models the low-rank family's factor computation: two thin
// GEMMs (P = M·Q, Q = Mᵀ·P) each streaming the gradient matrix once with
// the small-rank accumulators resident, plus a Gram-Schmidt pass over the
// factors (negligible traffic at small k). Launch count covers the two
// GEMM kernels and the orthogonalization.
func PowerSGDGEMM() Pipeline {
	return Pipeline{Name: "PowerSGD (GEMM)", Launches: 3, PassBytesPerElem: 9}
}

// Time returns the modeled kernel time in seconds to compress nElem FP32
// values. It panics on a non-positive element count with a configured
// pipeline, which indicates an experiment bug.
func (d Device) Time(p Pipeline, nElem int) float64 {
	if nElem < 0 {
		panic(fmt.Sprintf("gpusim: %d elements", nElem))
	}
	if nElem == 0 {
		return 0
	}
	traffic := p.PassBytesPerElem * float64(nElem)
	if p.SortN {
		log2 := 0
		for v := 1; v < nElem; v <<= 1 {
			log2++
		}
		traffic += d.SortPassFactor * float64(log2) * 8 * float64(nElem)
	}
	return float64(p.Launches)*d.LaunchOverhead + traffic/d.MemBW
}

// DecompressTime models the inverse pipeline; decompression reads the
// compressed stream and writes FP32, roughly the same traffic as
// compression for the fused pipelines.
func (d Device) DecompressTime(p Pipeline, nElem int) float64 {
	// Decoders skip the extrema pass but pay serialized entropy decoding;
	// the net effect in the paper's Table 2 is same-order throughput.
	return d.Time(p, nElem)
}

// Throughput returns the modeled compression throughput in input bytes per
// second (the y-axis of Figure 8).
func (d Device) Throughput(p Pipeline, nElem int) float64 {
	t := d.Time(p, nElem)
	if t == 0 {
		return 0
	}
	return 4 * float64(nElem) / t
}
