// Package dataset generates the synthetic tasks the proxy models train on,
// standing in for ImageNet, COCO, enwiki/BookCorpus, the Pile and SQuAD
// (none of which can be shipped or fit in this environment). Each task is a
// deterministic generator: the same seed yields the same stream, so every
// optimizer/compressor comparison trains on identical data.
package dataset

import (
	"math/rand/v2"

	"compso/internal/tensor"
	"compso/internal/xrand"
)

// Generator produces minibatches. x is batch×features; the shape of y
// depends on the task (class index column or regression targets).
type Generator interface {
	Name() string
	Sample(rng *rand.Rand, n int) (x, y *tensor.Matrix)
	// SampleInto is Sample into the caller's matrices: it reshapes x and y
	// (reusing their storage when it is large enough) and writes every
	// element, taking the same draws from rng in the same order.
	SampleInto(rng *rand.Rand, n int, x, y *tensor.Matrix)
	// InputDim returns the width of x.
	InputDim() int
}

// sample is every generator's Sample: its SampleInto on fresh matrices.
func sample(g Generator, rng *rand.Rand, n int) (x, y *tensor.Matrix) {
	x, y = new(tensor.Matrix), new(tensor.Matrix)
	g.SampleInto(rng, n, x, y)
	return x, y
}

// ImageClassification is the ImageNet stand-in: C×H×W images built from
// per-class frequency templates plus noise, so a small CNN must learn
// spatial structure to separate the classes.
type ImageClassification struct {
	Classes, C, H, W int
	Noise            float64
	templates        []*tensor.Matrix
}

// NewImageClassification creates the task with deterministic class
// templates derived from seed.
func NewImageClassification(classes, c, h, w int, noise float64, seed int64) *ImageClassification {
	rng := xrand.NewSeeded(seed)
	d := &ImageClassification{Classes: classes, C: c, H: h, W: w, Noise: noise}
	for cls := 0; cls < classes; cls++ {
		tmpl := tensor.New(1, c*h*w)
		for i := range tmpl.Data {
			tmpl.Data[i] = rng.NormFloat64()
		}
		d.templates = append(d.templates, tmpl)
	}
	return d
}

// Name implements Generator.
func (d *ImageClassification) Name() string { return "image-classification" }

// InputDim implements Generator.
func (d *ImageClassification) InputDim() int { return d.C * d.H * d.W }

// Sample implements Generator.
func (d *ImageClassification) Sample(rng *rand.Rand, n int) (*tensor.Matrix, *tensor.Matrix) {
	return sample(d, rng, n)
}

// SampleInto implements Generator.
func (d *ImageClassification) SampleInto(rng *rand.Rand, n int, x, y *tensor.Matrix) {
	x.Reshape(n, d.InputDim())
	y.Reshape(n, 1)
	for i := 0; i < n; i++ {
		cls := rng.IntN(d.Classes)
		y.Data[i] = float64(cls)
		tmpl := d.templates[cls].Data
		row := x.Data[i*x.Cols : (i+1)*x.Cols]
		for j := range row {
			row[j] = tmpl[j] + float64(rng.NormFloat64()*d.Noise)
		}
	}
}

// Detection is the COCO stand-in for the Mask R-CNN proxy: images contain a
// bright square object; the target is its normalized bounding box
// (cx, cy, w, h), making it a regression task evaluated by validation loss
// exactly as the paper reports Mask R-CNN.
type Detection struct {
	C, H, W int
	Noise   float64
}

// NewDetection creates the detection task.
func NewDetection(c, h, w int, noise float64) *Detection {
	return &Detection{C: c, H: h, W: w, Noise: noise}
}

// Name implements Generator.
func (d *Detection) Name() string { return "detection" }

// InputDim implements Generator.
func (d *Detection) InputDim() int { return d.C * d.H * d.W }

// Sample implements Generator. y is batch×4 normalized box coordinates.
func (d *Detection) Sample(rng *rand.Rand, n int) (*tensor.Matrix, *tensor.Matrix) {
	return sample(d, rng, n)
}

// SampleInto implements Generator.
func (d *Detection) SampleInto(rng *rand.Rand, n int, x, y *tensor.Matrix) {
	x.Reshape(n, d.InputDim())
	y.Reshape(n, 4)
	for i := 0; i < n; i++ {
		size := 2 + rng.IntN(d.H/2)
		cx := rng.IntN(d.W - size)
		cy := rng.IntN(d.H - size)
		row := x.Data[i*x.Cols : (i+1)*x.Cols]
		for j := range row {
			row[j] = rng.NormFloat64() * d.Noise
		}
		for ch := 0; ch < d.C; ch++ {
			for yy := cy; yy < cy+size; yy++ {
				for xx := cx; xx < cx+size; xx++ {
					row[ch*d.H*d.W+yy*d.W+xx] += 1.0
				}
			}
		}
		y.Data[i*4+0] = (float64(cx) + float64(float64(size)/2)) / float64(d.W)
		y.Data[i*4+1] = (float64(cy) + float64(float64(size)/2)) / float64(d.H)
		y.Data[i*4+2] = float64(size) / float64(d.W)
		y.Data[i*4+3] = float64(size) / float64(d.H)
	}
}

// TextClassification is the language-model stand-in for the BERT/GPT
// proxies: token sequences from per-class Markov chains; the model must
// learn token-transition statistics to classify.
type TextClassification struct {
	Classes, Vocab, SeqLen int
	trans                  [][]float64 // per class: flattened Vocab×Vocab transition CDFs
}

// NewTextClassification builds per-class transition matrices from seed.
func NewTextClassification(classes, vocab, seqLen int, seed int64) *TextClassification {
	rng := xrand.NewSeeded(seed)
	d := &TextClassification{Classes: classes, Vocab: vocab, SeqLen: seqLen}
	for c := 0; c < classes; c++ {
		cdf := make([]float64, vocab*vocab)
		for from := 0; from < vocab; from++ {
			var total float64
			weights := make([]float64, vocab)
			for to := range weights {
				w := rng.Float64()
				// Sparsify: each class prefers a different token subset,
				// strongly enough that a small model separates the classes
				// within a short training budget.
				if (to+from+c)%classes != 0 {
					w *= 0.04
				}
				weights[to] = w
				total += w
			}
			acc := 0.0
			for to, w := range weights {
				acc += w / total
				cdf[from*vocab+to] = acc
			}
		}
		d.trans = append(d.trans, cdf)
	}
	return d
}

// Name implements Generator.
func (d *TextClassification) Name() string { return "text-classification" }

// InputDim implements Generator.
func (d *TextClassification) InputDim() int { return d.SeqLen }

// Sample implements Generator. x holds token ids as float64 values.
func (d *TextClassification) Sample(rng *rand.Rand, n int) (*tensor.Matrix, *tensor.Matrix) {
	return sample(d, rng, n)
}

// SampleInto implements Generator.
func (d *TextClassification) SampleInto(rng *rand.Rand, n int, x, y *tensor.Matrix) {
	x.Reshape(n, d.SeqLen)
	y.Reshape(n, 1)
	for i := 0; i < n; i++ {
		cls := rng.IntN(d.Classes)
		y.Data[i] = float64(cls)
		cdf := d.trans[cls]
		tok := rng.IntN(d.Vocab)
		for s := 0; s < d.SeqLen; s++ {
			x.Data[i*d.SeqLen+s] = float64(tok)
			u := rng.Float64()
			row := cdf[tok*d.Vocab : (tok+1)*d.Vocab]
			next := 0
			for next < len(row)-1 && row[next] < u {
				next++
			}
			tok = next
		}
	}
}

// SpanExtraction is the SQuAD v1.1 stand-in: a token sequence contains an
// "answer" span opened by a question-dependent trigger token; the label
// encodes (start, length) jointly as start·MaxLen + (length−1), so a single
// softmax head predicts the span and the standard SQuAD F1/exact-match
// metrics apply.
type SpanExtraction struct {
	Vocab, SeqLen, MaxLen int
}

// NewSpanExtraction creates the task. Classes() = SeqLen·MaxLen.
func NewSpanExtraction(vocab, seqLen, maxLen int) *SpanExtraction {
	return &SpanExtraction{Vocab: vocab, SeqLen: seqLen, MaxLen: maxLen}
}

// Name implements Generator.
func (d *SpanExtraction) Name() string { return "span-extraction" }

// InputDim implements Generator.
func (d *SpanExtraction) InputDim() int { return d.SeqLen }

// Classes returns the size of the joint (start, length) label space.
func (d *SpanExtraction) Classes() int { return d.SeqLen * d.MaxLen }

// triggerToken is the reserved token that opens an answer span.
const triggerToken = 0

// Sample implements Generator.
func (d *SpanExtraction) Sample(rng *rand.Rand, n int) (*tensor.Matrix, *tensor.Matrix) {
	return sample(d, rng, n)
}

// SampleInto implements Generator.
func (d *SpanExtraction) SampleInto(rng *rand.Rand, n int, x, y *tensor.Matrix) {
	x.Reshape(n, d.SeqLen)
	y.Reshape(n, 1)
	for i := 0; i < n; i++ {
		length := 1 + rng.IntN(d.MaxLen)
		start := 1 + rng.IntN(d.SeqLen-length-1)
		for s := 0; s < d.SeqLen; s++ {
			x.Data[i*d.SeqLen+s] = float64(2 + rng.IntN(d.Vocab-2))
		}
		// Trigger token marks the span start; span tokens use token 1.
		x.Data[i*d.SeqLen+start-1] = triggerToken
		for s := start; s < start+length; s++ {
			x.Data[i*d.SeqLen+s] = 1
		}
		y.Data[i] = float64(start*d.MaxLen + (length - 1))
	}
}

// SpanF1EM scores predicted joint labels against gold labels with the
// SQuAD metrics: exact match and token-overlap F1, both in [0, 100].
func (d *SpanExtraction) SpanF1EM(pred, gold []int) (f1, em float64) {
	if len(pred) != len(gold) || len(pred) == 0 {
		return 0, 0
	}
	var f1Sum, emSum float64
	for i := range pred {
		ps, pl := pred[i]/d.MaxLen, pred[i]%d.MaxLen+1
		gs, gl := gold[i]/d.MaxLen, gold[i]%d.MaxLen+1
		if ps == gs && pl == gl {
			emSum++
			f1Sum++
			continue
		}
		// Token overlap.
		lo := max(ps, gs)
		hi := min(ps+pl, gs+gl)
		overlap := hi - lo
		if overlap <= 0 {
			continue
		}
		precision := float64(overlap) / float64(pl)
		recall := float64(overlap) / float64(gl)
		f1Sum += 2 * precision * recall / (precision + recall)
	}
	n := float64(len(pred))
	return 100 * f1Sum / n, 100 * emSum / n
}
