package dataset

import (
	"math"
	"reflect"
	"testing"

	"compso/internal/xrand"
)

func TestImageClassificationShapes(t *testing.T) {
	d := NewImageClassification(10, 3, 8, 8, 0.5, 1)
	x, y := d.Sample(xrand.NewSeeded(2), 17)
	if x.Rows != 17 || x.Cols != 3*8*8 {
		t.Fatalf("x %dx%d", x.Rows, x.Cols)
	}
	if y.Rows != 17 || y.Cols != 1 {
		t.Fatalf("y %dx%d", y.Rows, y.Cols)
	}
	for i := 0; i < y.Rows; i++ {
		if c := int(y.Data[i]); c < 0 || c >= 10 {
			t.Fatalf("class %d out of range", c)
		}
	}
}

func TestImageClassificationDeterministic(t *testing.T) {
	d1 := NewImageClassification(5, 1, 6, 6, 0.3, 42)
	d2 := NewImageClassification(5, 1, 6, 6, 0.3, 42)
	x1, y1 := d1.Sample(xrand.NewSeeded(7), 8)
	x2, y2 := d2.Sample(xrand.NewSeeded(7), 8)
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] {
			t.Fatal("same seeds produced different images")
		}
	}
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("same seeds produced different labels")
		}
	}
}

func TestImageClassificationSeparable(t *testing.T) {
	// Nearest-template classification must beat chance by a wide margin,
	// or the task is pure noise.
	d := NewImageClassification(4, 1, 6, 6, 0.5, 3)
	x, y := d.Sample(xrand.NewSeeded(4), 200)
	correct := 0
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*x.Cols : (i+1)*x.Cols]
		best, bestDist := -1, math.Inf(1)
		for c := 0; c < 4; c++ {
			var dist float64
			for j, v := range d.templates[c].Data {
				dd := row[j] - v
				dist += dd * dd
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == int(y.Data[i]) {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.9 {
		t.Fatalf("template accuracy %g, want >= 0.9", acc)
	}
}

func TestDetectionTargetsNormalized(t *testing.T) {
	d := NewDetection(1, 12, 12, 0.2)
	x, y := d.Sample(xrand.NewSeeded(5), 50)
	if y.Cols != 4 {
		t.Fatalf("y cols %d, want 4", y.Cols)
	}
	for i := 0; i < y.Rows; i++ {
		for j := 0; j < 4; j++ {
			v := y.Data[i*4+j]
			if v < 0 || v > 1 {
				t.Fatalf("target %g not normalized", v)
			}
		}
	}
	// The object must actually brighten pixels.
	var maxV float64
	for _, v := range x.Data {
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 0.9 {
		t.Fatalf("no object signal: max %g", maxV)
	}
}

func TestTextClassificationTokensInVocab(t *testing.T) {
	d := NewTextClassification(4, 20, 16, 6)
	x, y := d.Sample(xrand.NewSeeded(7), 40)
	for _, v := range x.Data {
		tok := int(v)
		if tok < 0 || tok >= 20 {
			t.Fatalf("token %d outside vocab", tok)
		}
	}
	seen := map[int]bool{}
	for i := 0; i < y.Rows; i++ {
		seen[int(y.Data[i])] = true
	}
	if len(seen) < 2 {
		t.Fatal("labels degenerate")
	}
}

func TestTextClassificationClassesDiffer(t *testing.T) {
	// Token histograms must differ across classes or the task is
	// unlearnable.
	d := NewTextClassification(2, 10, 64, 8)
	hist := [2][10]float64{}
	counts := [2]float64{}
	x, y := d.Sample(xrand.NewSeeded(9), 400)
	for i := 0; i < x.Rows; i++ {
		c := int(y.Data[i])
		counts[c]++
		for s := 0; s < x.Cols; s++ {
			hist[c][int(x.Data[i*x.Cols+s])]++
		}
	}
	var dist float64
	for tok := 0; tok < 10; tok++ {
		p0 := hist[0][tok] / (counts[0] * 64)
		p1 := hist[1][tok] / (counts[1] * 64)
		dist += math.Abs(p0 - p1)
	}
	if dist < 0.05 {
		t.Fatalf("class token distributions nearly identical: L1 %g", dist)
	}
}

func TestSpanExtractionLabels(t *testing.T) {
	d := NewSpanExtraction(16, 12, 3)
	x, y := d.Sample(xrand.NewSeeded(10), 100)
	for i := 0; i < y.Rows; i++ {
		label := int(y.Data[i])
		if label < 0 || label >= d.Classes() {
			t.Fatalf("label %d outside %d classes", label, d.Classes())
		}
		start, length := label/d.MaxLen, label%d.MaxLen+1
		// The trigger token must precede the span and span tokens must be 1.
		if int(x.Data[i*d.SeqLen+start-1]) != triggerToken {
			t.Fatalf("no trigger before span at row %d", i)
		}
		for s := start; s < start+length; s++ {
			if int(x.Data[i*d.SeqLen+s]) != 1 {
				t.Fatalf("span token at %d is %d", s, int(x.Data[i*d.SeqLen+s]))
			}
		}
	}
}

func TestSpanF1EM(t *testing.T) {
	d := NewSpanExtraction(16, 12, 3)
	label := func(start, length int) int { return start*d.MaxLen + (length - 1) }
	// Exact match.
	f1, em := d.SpanF1EM([]int{label(3, 2)}, []int{label(3, 2)})
	if f1 != 100 || em != 100 {
		t.Fatalf("exact: f1=%g em=%g", f1, em)
	}
	// Disjoint.
	f1, em = d.SpanF1EM([]int{label(1, 1)}, []int{label(8, 2)})
	if f1 != 0 || em != 0 {
		t.Fatalf("disjoint: f1=%g em=%g", f1, em)
	}
	// Partial overlap: pred [3,5), gold [4,6) → overlap 1, p=0.5, r=0.5.
	f1, em = d.SpanF1EM([]int{label(3, 2)}, []int{label(4, 2)})
	if em != 0 || math.Abs(f1-50) > 1e-9 {
		t.Fatalf("partial: f1=%g em=%g", f1, em)
	}
	// Mismatched input.
	if f1, em = d.SpanF1EM(nil, []int{1}); f1 != 0 || em != 0 {
		t.Fatal("mismatched lengths should score 0")
	}
}

// Every generator's Sample is a pure function of the rng's state and n: it
// keeps no stream position of its own, hands out storage nobody else holds,
// and reads nothing a caller's writes to an earlier sample could have
// changed. The trainer draws its validation set once per attempt on that
// ground (a resumed attempt draws it again and must get the same set).
func TestSampleIsAPureFunctionOfRngStateAndN(t *testing.T) {
	generators := []Generator{
		NewImageClassification(5, 2, 6, 6, 0.3, 42),
		NewDetection(1, 12, 12, 0.1),
		NewTextClassification(3, 11, 9, 4),
		NewSpanExtraction(20, 16, 4),
	}
	for _, g := range generators {
		const n, seed = 13, 77
		x, y := g.Sample(xrand.NewSeeded(seed), n)
		wantX, wantY := x.Clone(), y.Clone()
		// Whatever happens in between — other draws of other sizes, the
		// caller scribbling over what it was given — the same rng state
		// and n give the same bits in separate storage.
		g.Sample(xrand.NewSeeded(seed+1), 2*n+1)
		for i := range x.Data {
			x.Data[i] = math.NaN()
		}
		for i := range y.Data {
			y.Data[i] = math.NaN()
		}
		rng := xrand.NewSeeded(seed)
		gotX, gotY := g.Sample(rng, n)
		if !reflect.DeepEqual(gotX, wantX) || !reflect.DeepEqual(gotY, wantY) {
			t.Fatalf("%s: the same rng state and n drew a different sample the second time", g.Name())
		}
		if gotX.Cols != g.InputDim() || gotX.Rows != n || gotY.Rows != n {
			t.Fatalf("%s: sample is %dx%d with %d targets, want %dx%d with %d", g.Name(), gotX.Rows, gotX.Cols, gotY.Rows, n, g.InputDim(), n)
		}
		// The rng is the only state that advances: continuing it gives a
		// different batch, and that batch too repeats from the same state.
		nextX, _ := g.Sample(rng, n)
		if reflect.DeepEqual(nextX, wantX) {
			t.Fatalf("%s: the rng did not advance", g.Name())
		}
		replay := xrand.NewSeeded(seed)
		g.Sample(replay, n)
		if againX, _ := g.Sample(replay, n); !reflect.DeepEqual(againX, nextX) {
			t.Fatalf("%s: the second batch of a stream does not repeat", g.Name())
		}
	}
}
