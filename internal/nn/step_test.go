package nn_test

import (
	"fmt"
	"runtime"
	"testing"

	"compso/internal/modelzoo"
	"compso/internal/nn"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// proxyStep returns task with one batch and the loss gradient of its first
// training step, which also warms every layer's storage.
func proxyStep(task *modelzoo.ProxyTask) (x, grad *tensor.Matrix) {
	x, y := task.Data.Sample(xrand.NewSeeded(2), task.Batch)
	_, grad = task.Loss.Loss(task.Model.Forward(x, true), y)
	task.Model.Backward(grad)
	return x, grad
}

// After one warm-up step a training-mode Forward+Backward allocates
// nothing: every output, input gradient and temporary — patch matrices,
// products, weight gradients, the K-FAC statistics — is the layers' own
// storage, reused from the step before (DESIGN.md §5). The kilobyte covers
// stray headers, not anything that grows with the batch or the model.
func TestTrainStepAllocatesOnlyItsOutputs(t *testing.T) {
	const steps, bound = 5, 1 << 10
	for _, task := range []*modelzoo.ProxyTask{
		modelzoo.ProxyResNet(xrand.NewSeeded(1), 1),
		modelzoo.ProxyMaskRCNN(xrand.NewSeeded(1), 1),
	} {
		x, grad := proxyStep(task)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range steps {
			task.Model.Forward(x, true)
			task.Model.Backward(grad)
		}
		runtime.ReadMemStats(&after)
		if perStep := (after.TotalAlloc - before.TotalAlloc) / steps; perStep > bound {
			t.Errorf("%s: Forward+Backward allocated %d B/step, want at most %d", task.Name, perStep, bound)
		}
	}
}

func BenchmarkProxyResNetStep(b *testing.B) {
	task := modelzoo.ProxyResNet(xrand.NewSeeded(1), 1)
	x, grad := proxyStep(task)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.Model.Forward(x, true)
		task.Model.Backward(grad)
	}
}

var sinkEval *tensor.Matrix

// BenchmarkProxyResNetEval is the trainer's validation pass: 512 examples
// through Sequential.Forward(x, false).
func BenchmarkProxyResNetEval(b *testing.B) {
	task := modelzoo.ProxyResNet(xrand.NewSeeded(1), 1)
	x, _ := task.Data.Sample(xrand.NewSeeded(2), 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEval = task.Model.Forward(x, false)
	}
}

// BenchmarkConv2D times a training-mode Forward and a Backward of
// ProxyResNet's two convolutions at its batch of 32.
func BenchmarkConv2D(b *testing.B) {
	for _, s := range []struct{ inC, hw, outC int }{{1, 10, 6}, {6, 8, 8}} {
		c := nn.NewConv2D(s.inC, s.hw, s.hw, s.outC, 3, xrand.NewSeeded(3))
		x := tensor.New(32, s.inC*s.hw*s.hw)
		rng := xrand.NewSeeded(4)
		for i := range x.Data {
			x.Data[i] = max(0, rng.NormFloat64())
		}
		grad := c.Forward(x, true).Clone()
		c.Backward(grad)
		name := fmt.Sprintf("%dx%dx%d->%d", s.inC, s.hw, s.hw, s.outC)
		b.Run("forward/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Forward(x, true)
			}
		})
		b.Run("backward/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Backward(grad)
			}
		})
	}
}
