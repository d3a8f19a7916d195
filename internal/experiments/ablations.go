package experiments

import (
	"fmt"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/modelzoo"
	"compso/internal/quant"
	"compso/internal/xrand"
)

// Ablations isolates COMPSO's design choices on BERT-large-profile K-FAC
// gradients: rounding mode (§4.2), the filter stage (§4.3), byte-plane vs
// dense bit packing (§4.3's packing, revisited), layer aggregation (§4.4),
// factor compression (future work) and the bound auto-tuner (future work).

// AblationRow is one design-choice variant's measurement.
type AblationRow struct {
	Study, Variant string
	CR             float64
	// Cosine is the gradient-direction fidelity after the round trip
	// (1 = perfect).
	Cosine float64
	// Note carries a study-specific extra (e.g. comm time).
	Note string
}

// Ablations runs the design-choice study.
func Ablations() ([]AblationRow, *Table, error) {
	p := modelzoo.BERTLarge()
	sample := profileSample(p, 1<<20, 555)
	var rows []AblationRow
	table := &Table{
		Title:   "Ablations: COMPSO design choices on BERT-large KFAC gradients",
		Headers: []string{"Study", "Variant", "CR (x)", "Cosine", "Note"},
	}
	add := func(r AblationRow) {
		rows = append(rows, r)
		table.Rows = append(table.Rows, []string{
			r.Study, r.Variant, fmtF(r.CR, 2), fmtF(r.Cosine, 4), r.Note,
		})
	}
	roundTrip := func(c *compress.COMPSO) (float64, float64, error) {
		blob, err := c.Compress(sample)
		if err != nil {
			return 0, 0, err
		}
		out, err := c.Decompress(blob)
		if err != nil {
			return 0, 0, err
		}
		return compress.Ratio(len(sample), blob), compso.CosineSimilarity(sample, out), nil
	}

	// Study 1: rounding mode (§4.2). Same bounds, different rounding.
	for _, mode := range []quant.Mode{quant.SR, quant.RN, quant.P05} {
		c := compress.NewCOMPSO(1)
		c.Rounding = mode
		cr, cos, err := roundTrip(c)
		if err != nil {
			return nil, nil, err
		}
		add(AblationRow{Study: "rounding", Variant: mode.String(), CR: cr, Cosine: cos,
			Note: "design: SR (triangular error)"})
	}

	// Study 2: the filter stage.
	for _, on := range []bool{true, false} {
		c := compress.NewCOMPSO(2)
		c.FilterEnabled = on
		variant := "filter+SR"
		if !on {
			variant = "SR only"
		}
		cr, cos, err := roundTrip(c)
		if err != nil {
			return nil, nil, err
		}
		add(AblationRow{Study: "filter", Variant: variant, CR: cr, Cosine: cos,
			Note: "design: filter on (bitmap carries the ratio)"})
	}

	// Study 3: byte planes vs dense bit packing.
	for _, packed := range []bool{false, true} {
		c := compress.NewCOMPSO(3)
		c.BitPacked = packed
		variant := "byte planes"
		if packed {
			variant = "bit packed"
		}
		cr, cos, err := roundTrip(c)
		if err != nil {
			return nil, nil, err
		}
		add(AblationRow{Study: "packing", Variant: variant, CR: cr, Cosine: cos,
			Note: "design: byte planes (entropy-coder friendly)"})
	}

	// Study 4: layer aggregation's communication effect at 64 GPUs.
	cfg := cluster.Platform1()
	c := compress.NewCOMPSO(4)
	cr, err := MeasureCR(p, c, fig7AggM, 556)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range []int{1, 4, 16} {
		t := gatherSeconds(cfg, p, 64, m, cr)
		add(AblationRow{Study: "aggregation", Variant: fmt.Sprintf("m=%d", m), CR: cr, Cosine: 1,
			Note: fmt.Sprintf("allgather %.2f ms/iter", 1e3*t)})
	}

	// Study 5: factor compression (future work) — ratio on factor data.
	factorSample := make([]float32, 1<<19)
	xrand.Fill(xrand.NewSeeded(557), factorSample, 0.05)
	fc := compress.NewCOMPSO(5)
	fc.EBFilter, fc.EBQuant = 1e-3, 1e-3
	blob, err := fc.Compress(factorSample)
	if err != nil {
		return nil, nil, err
	}
	add(AblationRow{Study: "factor-comp", Variant: "eb=1e-3",
		CR: compress.Ratio(len(factorSample), blob), Cosine: 1,
		Note: "KFAC Allreduce payload reduction"})

	// Study 6: the bound auto-tuner (future work) at two fidelity targets.
	for _, target := range []float64{0.99, 0.95} {
		res, err := compso.TuneBounds(sample, target, 1e-5, 1e-1, 6)
		if err != nil {
			return nil, nil, err
		}
		add(AblationRow{Study: "auto-tune", Variant: fmt.Sprintf("cos>=%.2f", target),
			CR: res.Ratio, Cosine: res.Cosine,
			Note: fmt.Sprintf("tuned eb=%.2e", res.ErrorBound)})
	}
	return rows, table, nil
}
