package nn_test

import (
	"runtime"
	"testing"

	"compso/internal/modelzoo"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// proxyStep returns ProxyResNet with one batch and the loss gradient of its
// first training step, which also warms every layer's scratch.
func proxyStep() (task *modelzoo.ProxyTask, x, grad *tensor.Matrix) {
	task = modelzoo.ProxyResNet(xrand.NewSeeded(1), 1)
	x, y := task.Data.Sample(xrand.NewSeeded(2), task.Batch)
	_, grad = task.Loss.Loss(task.Model.Forward(x, true), y)
	task.Model.Backward(grad)
	return task, x, grad
}

// After the warm-up step a training-mode Forward+Backward may allocate only
// what it hands out: each layer's output and each layer's input gradient.
// Everything else (patch matrices, products, weight gradients, the K-FAC
// statistics) is reused from the step before.
func TestTrainStepAllocatesOnlyItsOutputs(t *testing.T) {
	task, x, grad := proxyStep()
	// The bound, from the layer shapes: walk the stack once by hand.
	var handedOut int
	h := x
	for _, l := range task.Model.Layers {
		h = l.Forward(h, true)
		handedOut += 8 * len(h.Data)
	}
	g := grad
	for i := len(task.Model.Layers) - 1; i >= 0; i-- {
		g = task.Model.Layers[i].Backward(g)
		handedOut += 8 * len(g.Data)
	}
	// Size classes round each allocation up (12.5% at worst, a page for the
	// large ones); the Matrix headers ride in the constant.
	bound := uint64(handedOut+handedOut/8) + 4096

	const steps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range steps {
		task.Model.Forward(x, true)
		task.Model.Backward(grad)
	}
	runtime.ReadMemStats(&after)
	if perStep := (after.TotalAlloc - before.TotalAlloc) / steps; perStep > bound {
		t.Fatalf("Forward+Backward allocated %d B/step, want at most %d (outputs and input gradients are %d B)",
			perStep, bound, handedOut)
	}
}

func BenchmarkProxyResNetStep(b *testing.B) {
	task, x, grad := proxyStep()
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
