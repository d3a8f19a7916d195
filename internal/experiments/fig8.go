package experiments

import (
	"fmt"
	"runtime"
	"time"

	"compso/internal/compress"
	"compso/internal/gpusim"
	"compso/internal/xrand"
)

// Figure 8: compression throughput vs data size for the five pipeline
// implementations — SZ (CUDA), QSGD (CUDA), QSGD (PyTorch), COMPSO (CUDA)
// and CocktailSGD (PyTorch). Two views are produced: the modeled A100
// throughput from the gpusim roofline (the paper's absolute scale) and the
// measured throughput of this repository's Go implementations, whose fused
// (chunk-parallel) vs multi-pass structure mirrors the CUDA vs PyTorch
// split.

// Fig8Point is one (pipeline, size) throughput sample.
type Fig8Point struct {
	Pipeline string
	SizeMB   int
	// ModelGBps is the gpusim A100 roofline estimate.
	ModelGBps float64
	// MeasuredMBps is the real Go implementation's throughput (0 when the
	// measured pass is skipped).
	MeasuredMBps float64
}

// fig8Sizes is the x-axis in MB.
var fig8Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128}

// fig8Impl pairs a gpusim pipeline with the Go implementation measured
// alongside it. Fused pipelines use chunk-parallel execution (thread-block
// style); PyTorch pipelines run the deliberately multi-pass variants.
type fig8Impl struct {
	pipeline gpusim.Pipeline
	mk       func() compress.Compressor
}

func fig8Impls() []fig8Impl {
	chunked := func(newInner func(seed int64) compress.Compressor) compress.Compressor {
		return &compress.Chunked{New: newInner, ChunkSize: 1 << 16, Workers: runtime.GOMAXPROCS(0), Seed: 77}
	}
	return []fig8Impl{
		{gpusim.SZCUDA(), func() compress.Compressor {
			return chunked(func(seed int64) compress.Compressor { return compress.NewSZ(4e-3) })
		}},
		{gpusim.QSGDCUDA(), func() compress.Compressor {
			return chunked(func(seed int64) compress.Compressor { return compress.NewQSGD(8, seed) })
		}},
		{gpusim.QSGDTorch(), func() compress.Compressor { return compress.NewTorchQSGD(8, 3) }},
		{gpusim.COMPSOFused(), func() compress.Compressor {
			return chunked(func(seed int64) compress.Compressor { return compress.NewCOMPSO(seed) })
		}},
		{gpusim.CocktailTorch(), func() compress.Compressor { return compress.NewTorchCocktailSGD(0.2, 8, 4) }},
	}
}

// fig8Point models one pipeline at one size on the A100 and, when comp is
// not nil, times comp (the pipeline's Go implementation) compressing a
// K-FAC-shaped gradient of that size.
func fig8Point(impl fig8Impl, comp compress.Compressor, mb int) (Fig8Point, error) {
	nElem := mb << 20 / 4
	pt := Fig8Point{
		Pipeline:  impl.pipeline.Name,
		SizeMB:    mb,
		ModelGBps: gpusim.A100().Throughput(impl.pipeline, nElem) / 1e9,
	}
	if comp == nil {
		return pt, nil
	}
	src := make([]float32, nElem)
	xrand.KFACGradient(xrand.NewSeeded(int64(mb)), src, 1.0)
	start := time.Now()
	if _, err := comp.Compress(src); err != nil {
		return pt, fmt.Errorf("fig8 %s: %w", impl.pipeline.Name, err)
	}
	pt.MeasuredMBps = float64(4*nElem) / 1e6 / time.Since(start).Seconds()
	return pt, nil
}

// Figure8 regenerates the throughput study. measure controls whether the
// (slower) real Go measurement pass runs in addition to the model; each
// pipeline's compressor is measured over the sizes in increasing order.
func Figure8(measure bool) ([]Fig8Point, *Table, error) {
	var points []Fig8Point
	table := &Table{
		Title:   "Figure 8: compression throughput vs data size",
		Headers: []string{"Pipeline", "Size (MB)", "A100 model (GB/s)", "Go measured (MB/s)"},
	}
	for _, impl := range fig8Impls() {
		var comp compress.Compressor
		if measure {
			comp = impl.mk()
		}
		for _, mb := range fig8Sizes {
			pt, err := fig8Point(impl, comp, mb)
			if err != nil {
				return nil, nil, err
			}
			points = append(points, pt)
			measured := "-"
			if measure {
				measured = fmtF(pt.MeasuredMBps, 0)
			}
			table.Rows = append(table.Rows, []string{
				impl.pipeline.Name, fmt.Sprint(mb), fmtF(pt.ModelGBps, 1), measured,
			})
		}
	}
	return points, table, nil
}
