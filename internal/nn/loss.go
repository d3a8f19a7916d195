package nn

import (
	"fmt"
	"math"

	"compso/internal/tensor"
)

// Loss computes a scalar training loss and its gradient w.r.t. the model
// output (already averaged over the batch, ready for Backward).
type Loss interface {
	Name() string
	// Loss returns (mean loss, ∂L/∂logits) for a batch. targets' shape
	// depends on the loss: class indices (batch×1) for cross-entropy,
	// regression targets (batch×dim) for MSE.
	Loss(logits, targets *tensor.Matrix) (float64, *tensor.Matrix)
	// LossInto is Loss with the gradient written into grad, reshaped to
	// logits' shape (in its storage when that is large enough). A nil grad
	// computes no gradient; the loss is the same either way.
	LossInto(logits, targets, grad *tensor.Matrix) float64
}

// SoftmaxCrossEntropy is the classification loss; targets hold class
// indices as float64 in a batch×1 matrix.
type SoftmaxCrossEntropy struct{}

// Name implements Loss.
func (SoftmaxCrossEntropy) Name() string { return "softmax-xent" }

// Loss implements Loss.
func (l SoftmaxCrossEntropy) Loss(logits, targets *tensor.Matrix) (float64, *tensor.Matrix) {
	grad := new(tensor.Matrix)
	return l.LossInto(logits, targets, grad), grad
}

// LossInto implements Loss.
func (SoftmaxCrossEntropy) LossInto(logits, targets, grad *tensor.Matrix) float64 {
	if targets.Rows != logits.Rows || targets.Cols != 1 {
		panic(fmt.Sprintf("nn: xent targets %dx%d for logits %dx%d", targets.Rows, targets.Cols, logits.Rows, logits.Cols))
	}
	if grad != nil {
		grad.Reshape(logits.Rows, logits.Cols)
	}
	var total float64
	invB := 1.0 / float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Data[i*logits.Cols : (i+1)*logits.Cols]
		cls := int(targets.Data[i])
		if cls < 0 || cls >= logits.Cols {
			panic(fmt.Sprintf("nn: class %d outside %d logits", cls, logits.Cols))
		}
		// Stable softmax.
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxV)
		}
		logSum := math.Log(sum) + maxV
		total += logSum - row[cls]
		if grad == nil {
			continue
		}
		for j, v := range row {
			p := math.Exp(v-maxV) / sum
			g := p
			if j == cls {
				g -= 1
			}
			grad.Data[i*logits.Cols+j] = g * invB
		}
	}
	return total * invB
}

// Accuracy returns the fraction of rows whose argmax matches the target
// class index.
func Accuracy(logits, targets *tensor.Matrix) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		row := logits.Data[i*logits.Cols : (i+1)*logits.Cols]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == int(targets.Data[i]) {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}

// MSE is the mean-squared-error regression loss over batch×dim targets.
type MSE struct{}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// Loss implements Loss.
func (l MSE) Loss(pred, targets *tensor.Matrix) (float64, *tensor.Matrix) {
	grad := new(tensor.Matrix)
	return l.LossInto(pred, targets, grad), grad
}

// LossInto implements Loss.
func (MSE) LossInto(pred, targets, grad *tensor.Matrix) float64 {
	if targets.Rows != pred.Rows || targets.Cols != pred.Cols {
		panic(fmt.Sprintf("nn: MSE targets %dx%d for pred %dx%d", targets.Rows, targets.Cols, pred.Rows, pred.Cols))
	}
	if grad != nil {
		grad.Reshape(pred.Rows, pred.Cols)
	}
	var total float64
	invN := 1.0 / float64(pred.Rows*pred.Cols)
	for i, p := range pred.Data {
		d := p - targets.Data[i]
		total += float64(d * d)
		if grad != nil {
			grad.Data[i] = 2 * d * invN
		}
	}
	return total * invN
}
