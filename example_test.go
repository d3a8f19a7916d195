package compso_test

import (
	"fmt"

	"compso"
)

// ExampleNew demonstrates the basic compress/decompress cycle with the
// error-bound guarantee.
func ExampleNew() {
	// A gradient with COMPSO-friendly structure: near-zero bulk + outliers.
	gradient := make([]float32, 10000)
	rng := compso.NewRand(7)
	for i := range gradient {
		if rng.Float64() < 0.9 {
			gradient[i] = float32(rng.NormFloat64() * 0.001)
		} else {
			gradient[i] = float32(rng.NormFloat64() * 0.1)
		}
	}

	c := compso.New(compso.WithSeed(42))
	blob, err := c.Compress(gradient)
	if err != nil {
		panic(err)
	}
	restored, err := c.Decompress(blob)
	if err != nil {
		panic(err)
	}

	maxErr := 0.0
	for i := range gradient {
		e := float64(restored[i] - gradient[i])
		if e < 0 {
			e = -e
		}
		if e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("values restored: %d\n", len(restored))
	fmt.Printf("error within bound: %v\n", maxErr <= c.MaxError())
	// Output:
	// values restored: 10000
	// error within bound: true
}

// ExampleNewController shows Algorithm 1's stage transitions.
func ExampleNewController() {
	schedule := &compso.StepLR{BaseLR: 0.1, Drops: []int{25}, Gamma: 0.1}
	ctrl := compso.NewController(schedule, 100)

	early := ctrl.StrategyAt(0)
	late := ctrl.StrategyAt(30)
	fmt.Printf("before LR drop: filter=%v eb=%.0e\n", early.FilterEnabled, early.EBQuant)
	fmt.Printf("after LR drop:  filter=%v eb=%.0e\n", late.FilterEnabled, late.EBQuant)
	// Output:
	// before LR drop: filter=true eb=4e-03
	// after LR drop:  filter=false eb=2e-03
}

// ExampleEndToEndSpeedup reproduces the paper's §4.4 example: 50%
// communication share and a 10x communication speedup project to 1.8x
// end to end.
func ExampleEndToEndSpeedup() {
	fmt.Printf("%.1fx\n", compso.EndToEndSpeedup(0.5, 10))
	// Output:
	// 1.8x
}

// ExampleModelByName inspects an evaluation workload profile.
func ExampleModelByName() {
	p, err := compso.ModelByName("ResNet-50")
	if err != nil {
		panic(err)
	}
	fmt.Printf("layers: %d\n", len(p.Layers))
	fmt.Printf("params: %dM\n", p.TotalParams()/1e6)
	// Output:
	// layers: 54
	// params: 25M
}
