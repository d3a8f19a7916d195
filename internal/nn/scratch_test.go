package nn

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"compso/internal/tensor"
	"compso/internal/xrand"
)

// proxyCNN is the layer stack of modelzoo.ProxyResNet (which this package
// cannot import): every layer kind that keeps step-lifetime scratch.
func proxyCNN(seed int64) *Sequential {
	rng := xrand.NewSeeded(seed)
	conv1 := NewConv2D(1, 10, 10, 6, 3, rng)
	conv2 := NewConv2D(6, conv1.OH, conv1.OW, 8, 3, rng)
	return NewSequential(conv1, NewReLU(), conv2, NewReLU(),
		NewDense(conv2.OutFeatures(), 32, rng), NewReLU(), NewDense(32, 10, rng))
}

// trainStep runs one training-mode Forward and Backward with the output as
// its own gradient, as numericalGradCheck does.
func trainStep(m *Sequential, x *tensor.Matrix) {
	m.Backward(m.Forward(x, true).Clone())
}

// describe writes everything reachable from v: pointer identities, slice
// headers and every element, so two descriptions are equal only if nothing
// was reassigned, resliced or overwritten in between.
func describe(sb *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		fmt.Fprintf(sb, "*%x", v.Pointer())
		if !v.IsNil() {
			describe(sb, v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			describe(sb, v.Elem())
		}
	case reflect.Struct:
		sb.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			describe(sb, v.Field(i))
			sb.WriteByte(',')
		}
		sb.WriteByte('}')
	case reflect.Slice:
		fmt.Fprintf(sb, "[%x:%d:%d", v.Pointer(), v.Len(), v.Cap())
		for i := 0; i < v.Len(); i++ {
			describe(sb, v.Index(i))
			sb.WriteByte(' ')
		}
		sb.WriteByte(']')
	case reflect.Float64:
		fmt.Fprintf(sb, "%x", math.Float64bits(v.Float()))
	case reflect.Int:
		fmt.Fprintf(sb, "%d", v.Int())
	case reflect.Bool:
		fmt.Fprintf(sb, "%t", v.Bool())
	case reflect.String:
		sb.WriteString(v.String())
	default:
		panic("describe: unhandled kind " + v.Kind().String())
	}
}

func describeModel(m *Sequential) string {
	var sb strings.Builder
	describe(&sb, reflect.ValueOf(m))
	return sb.String()
}

// Evaluation must stay re-entrant: the trainer and the Table 1 scorer call
// Forward(x, false) on a model other code may be holding, so it may not
// write a single layer field — not even scratch a training step left behind.
func TestEvalForwardWritesNoLayerField(t *testing.T) {
	m := proxyCNN(1)
	trainStep(m, randomInput(32, 100, 2))
	before := describeModel(m)
	out1 := m.Forward(randomInput(8, 100, 3), false)
	out2 := m.Forward(randomInput(8, 100, 3), false)
	if after := describeModel(m); after != before {
		t.Fatal("Forward(x, false) changed the model's state")
	}
	if !reflect.DeepEqual(out1, out2) || &out1.Data[0] == &out2.Data[0] {
		t.Fatal("two evaluation passes must return equal, separately stored outputs")
	}
}

// Scratch belongs to one layer of one model: stepping two models in turn
// must leave each with the gradients and K-FAC statistics of stepping alone.
func TestInterleavedModelsKeepTheirOwnScratch(t *testing.T) {
	xa, xb := randomInput(32, 100, 4), randomInput(32, 100, 5)
	solo := func(seed int64, x *tensor.Matrix) *Sequential {
		m := proxyCNN(seed)
		for range 2 {
			trainStep(m, x)
		}
		return m
	}
	wantA, wantB := solo(6, xa), solo(7, xb)

	a, b := proxyCNN(6), proxyCNN(7)
	for range 2 {
		ya, yb := a.Forward(xa, true), b.Forward(xb, true)
		a.Backward(ya.Clone())
		b.Backward(yb.Clone())
	}
	for _, c := range []struct{ got, want *Sequential }{{a, wantA}, {b, wantB}} {
		for i, p := range c.got.Params() {
			if !reflect.DeepEqual(p.Grad.Data, c.want.Params()[i].Grad.Data) {
				t.Fatalf("gradient of %s differs from the solo run", p.Name)
			}
		}
		_, got := c.got.KFACLayers()
		_, want := c.want.KFACLayers()
		for i := range got {
			ga, gg := got[i].KFACStats()
			wa, wg := want[i].KFACStats()
			if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gg, wg) {
				t.Fatalf("K-FAC statistics of layer %d differ from the solo run", i)
			}
		}
	}
}
