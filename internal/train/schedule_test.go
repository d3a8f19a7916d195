package train

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/dataset"
	"compso/internal/fault"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/nn"
	"compso/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/schedule_v1.json from this build")

// corruptionPlan is rate-driven, so some attempt-0 deliveries decode, some
// recover at the retry and some exhaust it and fall back to lossless FP32.
func corruptionPlan() *fault.Plan {
	return &fault.Plan{
		Seed:       33,
		Corruption: fault.Corruption{Rate: 0.5, BitFlips: 5},
		MaxRetries: 1,
	}
}

// smallResNet is ProxyResNet's four-layer architecture on 8×8 inputs. Its
// widest Kronecker factor is 129×129 instead of 289×289, so a K-FAC run's
// step-0 eigendecomposition — nearly all of a 6-step run's host time —
// costs a tenth; the cells no other matrix already runs use it.
func smallResNet(rng *rand.Rand) *modelzoo.ProxyTask {
	const c, h, w, classes = 1, 8, 8, 10
	conv1 := nn.NewConv2D(c, h, w, 6, 3, rng)
	conv2 := nn.NewConv2D(6, conv1.OH, conv1.OW, 8, 3, rng)
	return &modelzoo.ProxyTask{
		Name: "small-resnet",
		Model: nn.NewSequential(conv1, nn.NewReLU(), conv2, nn.NewReLU(),
			nn.NewDense(conv2.OutFeatures(), 32, rng), nn.NewReLU(), nn.NewDense(32, classes, rng)),
		Data: dataset.NewImageClassification(classes, c, h, w, 0.8, 5),
		Loss: nn.SoftmaxCrossEntropy{}, Batch: 32, Classes: classes,
	}
}

// scheduleCells is the fingerprint matrix's optimizer × compressor axis:
// TestOverlapBitIdentityMatrix's cells (minus plain PowerSGD, covered here
// with error feedback) plus the configurations that matrix leaves out.
func scheduleCells() []struct {
	name string
	mut  func(*Config)
} {
	small := func(c *Config) { c.BuildTask = smallResNet }
	// Warm-up ends at step 2, so the last four steps apply the exchanged
	// preconditioned gradients and FinalLoss pins what the receive path
	// installed (under the default 15 warm-up steps a 6-step run never
	// would).
	smallKFAC := func(c *Config) {
		small(c)
		c.UseKFAC = true
		c.KFAC = kfac.DefaultConfig()
		c.KFAC.WarmupSteps = 2
	}
	kfacCompso := func(c *Config) {
		smallKFAC(c)
		c.NewCompressor = func(rank int) compress.Compressor { return compso.NewCompressor(nil, rank, 66) }
		c.AggregationM = 2
	}
	cells := overlapCells()
	for i, c := range cells {
		if c.name == "sgd-powersgd" {
			cells[i].name = "sgd-powersgd-ef"
			cells[i].mut = func(c *Config) {
				small(c)
				c.NewCompressor = powerSGDFactory(true)
			}
		}
	}
	return append(cells, []struct {
		name string
		mut  func(*Config)
	}{
		{"kfac-per-layer", func(c *Config) {
			smallKFAC(c)
			c.NewLayerCompressor = func(rank, layer int) compress.Compressor {
				if layer%2 == 0 {
					return compress.NewPowerSGD(4, 7)
				}
				return compress.NewCOMPSO(int64(rank)*100 + int64(layer))
			}
		}},
		{"kfac-compso-factors", func(c *Config) {
			kfacCompso(c)
			c.CompressFactors = true
		}},
		// worldSize > nLayers: five of the nine ranks own no layer.
		{"kfac-compso-9x4", func(c *Config) {
			kfacCompso(c)
			c.Workers = 9
		}},
	}...)
}

func schedName(overlap bool) string {
	if overlap {
		return "overlap"
	}
	return "seq"
}

func planName(p *fault.Plan) string {
	switch {
	case p == nil:
		return "none"
	case p.Corruption.Rate > 0:
		return "corruption"
	}
	return "timing"
}

// matrixRuns memoizes 6-step matrix runs by "cell/schedule/plan", each a
// sync.OnceValues, so the fingerprint and the bit-identity matrix pay once
// per test binary for the runs both need, also while they run in parallel.
var matrixRuns sync.Map

// matrixRun runs one matrix cell with a recorder attached (observation
// never changes results), or returns the memoized result.
func matrixRun(t *testing.T, cell string, mut func(*Config), overlap bool, plan *fault.Plan) *Result {
	t.Helper()
	key := cell + "/" + schedName(overlap) + "/" + planName(plan)
	run, _ := matrixRuns.LoadOrStore(key, sync.OnceValues(func() (*Result, error) {
		cfg := baseConfig(6)
		mut(&cfg)
		cfg.Overlap = overlap
		cfg.Fault = plan
		cfg.Obs = obs.NewRecorder()
		return Run(cfg)
	}))
	res, err := run.(func() (*Result, error))()
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return res
}

// fingerprint is everything a schedule rewrite must not move, with every
// float pinned by its IEEE-754 bits.
type fingerprint struct {
	FinalLoss   string            `json:"final_loss"`
	MeanCR      string            `json:"mean_cr"`
	CommSeconds map[string]string `json:"comm_seconds"`
	AlgSeconds  map[string]string `json:"alg_seconds"`
	FaultEvents map[string]int64  `json:"fault_events,omitempty"`
	Wire        map[string]string `json:"wire"`
	Phases      []string          `json:"step0_phases"`
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func bitsMap(m map[string]float64, prefix string) map[string]string {
	out := map[string]string{}
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			out[k] = bits(v)
		}
	}
	return out
}

func fingerprintOf(res *Result) fingerprint {
	fp := fingerprint{
		FinalLoss:   bits(res.FinalLoss),
		MeanCR:      bits(res.MeanCR),
		CommSeconds: bitsMap(res.CommSeconds, ""),
		AlgSeconds:  bitsMap(res.AlgSeconds, ""),
		FaultEvents: res.FaultEvents,
		Wire:        bitsMap(res.Metrics.Counters, "wire/"),
		Phases:      []string{},
	}
	// Rank 0's first step span is its lowest-ID one; IDs grow in creation
	// order per goroutine, so sorting its phase children by ID recovers the
	// order the step opened them in.
	var step0 obs.SpanID
	for _, sp := range res.Metrics.SpansFor(obs.CatStep) {
		if sp.Rank == 0 && (step0 == 0 || sp.ID < step0) {
			step0 = sp.ID
		}
	}
	var phases []obs.Span
	for _, sp := range res.Metrics.SpansFor(obs.CatPhase) {
		if sp.Parent == step0 {
			phases = append(phases, sp)
		}
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].ID < phases[j].ID })
	for _, sp := range phases {
		fp.Phases = append(fp.Phases, sp.Name)
	}
	return fp
}

// TestScheduleFingerprint pins what the bit-identity matrices cannot: those
// compare sequential against overlap within one build, so a rewrite that
// moved both schedules' simulated time, fault tallies or phase structure
// the same way would pass them. Every cell × schedule × fault plan is
// compared bit for bit against testdata/schedule_v1.json, written by
// `go test -run TestScheduleFingerprint -update` at the commit whose
// schedule is the reference.
func TestScheduleFingerprint(t *testing.T) {
	t.Parallel()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits are recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	got := map[string]fingerprint{}
	var retries, fallbacks int64
	for _, cell := range scheduleCells() {
		for _, overlap := range []bool{false, true} {
			for _, plan := range []*fault.Plan{nil, timingPlan(), corruptionPlan()} {
				res := matrixRun(t, cell.name, cell.mut, overlap, plan)
				got[cell.name+"/"+schedName(overlap)+"/"+planName(plan)] = fingerprintOf(res)
				retries += res.FaultEvents["retries"]
				fallbacks += res.FaultEvents["fallbacks"]
			}
		}
	}
	// MaxRetries is 1, so retries − fallbacks ladders ended at the retry.
	if fallbacks == 0 || retries <= fallbacks {
		t.Fatalf("corruption plan must end ladders at both rungs: %d retries, %d fallbacks", retries, fallbacks)
	}

	path := filepath.Join("testdata", "schedule_v1.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update at the reference commit)", err)
	}
	want := map[string]fingerprint{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cells, golden has %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in the golden file but not run", key)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s drifted:\n got  %s\n want %s", key, gj, wj)
		}
	}
}
