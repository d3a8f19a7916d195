package train

import (
	"encoding/binary"
	"fmt"

	"compso/internal/des"
	"compso/internal/gpusim"
	"compso/internal/modelzoo"
)

// StepModel is what the lowering needs to know about one model: the proxy
// tasks the trainer runs, whose replay must equal the live ledger bit for
// bit, or a modelzoo profile at thousands of ranks.
type StepModel struct {
	// Grads are the gradient tensor sizes in elements, in flatten order.
	Grads []int
	// Layers are the K-FAC layers in optimizer order.
	Layers []LayerModel
	// FwdBwd, Others and Cov are one step's forward+backward, remaining
	// (data loading, norm layers, optimizer) and covariance seconds (the
	// live loop charges none of them).
	FwdBwd, Others, Cov float64
	// CovElems is the covariance all-reduce length.
	CovElems int
	// Pipeline, when set, is the kernel frames are charged on: blobs
	// compressed per owned group and decoded per received frame. nil frames
	// are raw FP32 and cost no kernel time.
	Pipeline *gpusim.Pipeline
}

// LayerModel is one K-FAC layer: its gradient length, eigendecomposition
// and precondition seconds, and its bytes in an exchange frame (4·Elems
// when raw).
type LayerModel struct {
	Elems        int
	Eig, Precond float64
	Payload      int
}

// ProfileModel is a modelzoo profile's step model on the A100 compute
// model, layer li shipping payload(li) bytes charged on pipe.
func ProfileModel(prof modelzoo.Profile, pipe *gpusim.Pipeline, payload func(layer int) int) StepModel {
	cm := modelzoo.A100Compute()
	m := StepModel{FwdBwd: cm.FwdBwdTime(prof), Cov: cm.CovTime(prof), CovElems: prof.CovarianceFloats(), Pipeline: pipe}
	for li, l := range prof.Layers {
		m.Grads = append(m.Grads, l.Params())
		m.Layers = append(m.Layers, LayerModel{l.Params(), cm.EigTime(prof, li), cm.PrecondTime(prof, li), payload(li)})
	}
	return m
}

// Lower reads the step's stage table a second time: it emits the
// des.Program of cfg.Iters steps of cfg's training loop on cfg.Workers
// ranks over m, each stage's ops built once and shared by every step the
// stage runs in. Under Overlap every collective is a launch and a wait, so
// the replay serializes its wire as train.Run does; sequentially each
// launch is waited at once, which lowers to the blocking op. The low-rank
// ring and the compressed factor exchange are not lowered.
func Lower(c Config, m StepModel) (des.Program, error) {
	cfg := c.withDefaults()
	if cfg.Workers <= 0 || cfg.Iters <= 0 || cfg.CompressFactors {
		return nil, fmt.Errorf("train: cannot lower %d steps on %d workers (compressed factors %v)", cfg.Iters, cfg.Workers, cfg.CompressFactors)
	}
	l := &lowering{m: m, p: cfg.Workers, async: cfg.Overlap, shape: newShape(cfg, m.Grads, len(m.Layers))}
	stages := stagesFor(cfg, m.Pipeline != nil, false)
	ops := make([][]des.Op, len(stages))
	for i, st := range stages {
		ops[i] = st.lower(l)
	}
	var prog des.Program
	for it := range cfg.Iters {
		prog = append(prog, des.Op{Kind: des.KindSetStep, Step: it})
		if m.FwdBwd > 0 {
			prog = append(prog, des.Op{Kind: des.KindCompute, Seconds: m.FwdBwd, Category: "fwd-bwd"})
		}
		if m.Others > 0 {
			prog = append(prog, des.Op{Kind: des.KindCompute, Seconds: m.Others, Category: "others"})
		}
		for i, st := range stages {
			if st.when == nil || st.when(cfg, it) {
				prog = append(prog, ops[i]...)
			}
		}
	}
	return prog, nil
}

// lowering is one Lower call's step-invariant state. Launch IDs are fixed
// per role: 0 for the covariance sum or the first-order blob gather, 1+b
// for gradient bucket b, 1+len(buckets)+r for exchange round r.
type lowering struct {
	m     StepModel
	p     int
	async bool
	shape
}

// launch appends the all-reduce or all-gather op as launch id; without
// async, where every launch is waited at once, as the blocking op itself.
func (l *lowering) launch(ops []des.Op, op des.Op, id int) []des.Op {
	if l.async {
		op.Kind, op.Of, op.ID = des.KindLaunch, op.Kind, id
	}
	return append(ops, op)
}

func (l *lowering) wait(ops []des.Op, id int) []des.Op {
	if !l.async {
		return ops
	}
	return append(ops, des.Op{Kind: des.KindWait, ID: id})
}

// each is a compute op charging rank r seconds(r).
func (l *lowering) each(category string, seconds func(r int) float64) des.Op {
	v := make([]float64, l.p)
	for r := range v {
		v[r] = seconds(r)
	}
	return des.Op{Kind: des.KindComputeEach, PerRank: v, Category: category}
}

func (l *lowering) launchGrads() (ops []des.Op) {
	for b, bk := range l.buckets {
		ops = l.launch(ops, des.Op{Kind: des.KindAllReduce, Elems: bk.elems, Category: "grad-allreduce"}, 1+b)
	}
	return ops
}

func (l *lowering) installGrads() (ops []des.Op) {
	for b := range l.buckets {
		ops = l.wait(ops, 1+b)
	}
	return ops
}

// gatherGrads compresses the whole gradient, all-gathers one blob a rank
// and decodes every rank's.
func (l *lowering) gatherGrads() []des.Op {
	elems, blob := 0, 0
	for _, n := range l.m.Grads {
		elems += n
	}
	for _, ly := range l.m.Layers {
		blob += ly.Payload
	}
	ops := []des.Op{{Kind: des.KindCompute, Seconds: a100.Time(*l.m.Pipeline, elems), Category: "compress"}}
	ops = l.wait(l.launch(ops, des.Op{Kind: des.KindAllGather, Sizes: []int{blob}, Category: "grad-allgather"}, 0), 0)
	for range l.p {
		ops = append(ops, des.Op{Kind: des.KindCompute, Seconds: a100.DecompressTime(*l.m.Pipeline, elems), Category: "decompress"})
	}
	return ops
}

func (l *lowering) launchStats() (ops []des.Op) {
	if l.m.Cov > 0 {
		ops = append(ops, des.Op{Kind: des.KindCompute, Seconds: l.m.Cov, Category: "kfac-cov"})
	}
	return l.launch(ops, des.Op{Kind: des.KindAllReduce, Elems: l.m.CovElems, Category: "kfac-allreduce"}, 0)
}

func (l *lowering) commitStats() []des.Op { return l.wait(nil, 0) }

// eigen charges the owned layers slot by slot — slot j is every rank's
// j-th owned layer, zero past its count — adding to each clock what the
// live loop adds, layer by layer.
func (l *lowering) eigen() (ops []des.Op) {
	for j := range l.owned[0] {
		ops = append(ops, l.each("kfac-eigendecomp", func(r int) float64 {
			if j < len(l.owned[r]) {
				return l.m.Layers[l.owned[r][j]].Eig
			}
			return 0
		}))
	}
	return ops
}

// exchange lowers the rounds: each launches after its groups' precondition
// (slot by slot, like eigen) and compress charges, carrying one
// uvarint-framed payload a group; then each is waited and its frames
// decoded, sender by sender. Rank 0 owns the most groups.
func (l *lowering) exchange() (ops []des.Op) {
	// sum adds q over rank r's gi-th group's layers, zero past its count.
	sum := func(r, gi int, q func(LayerModel) int) (n int) {
		if gi < len(l.groups[r]) {
			for _, li := range l.groups[r][gi] {
				n += q(l.m.Layers[li])
			}
		}
		return n
	}
	elems := func(ly LayerModel) int { return ly.Elems }
	rounds := (len(l.groups[0]) + l.perRound - 1) / l.perRound
	for rd := range rounds {
		sizes := make([]int, l.p)
		for gi := rd * l.perRound; gi < min((rd+1)*l.perRound, len(l.groups[0])); gi++ {
			for i := range l.groups[0][gi] {
				ops = append(ops, l.each("kfac-precondition", func(r int) float64 {
					if gi < len(l.groups[r]) && i < len(l.groups[r][gi]) {
						return l.m.Layers[l.groups[r][gi][i]].Precond
					}
					return 0
				}))
			}
			if l.m.Pipeline != nil {
				ops = append(ops, l.each("compress", func(r int) float64 { return a100.Time(*l.m.Pipeline, sum(r, gi, elems)) }))
			}
			for r := range sizes {
				if gi < len(l.groups[r]) {
					n := sum(r, gi, func(ly LayerModel) int { return ly.Payload })
					sizes[r] += len(binary.AppendUvarint(nil, uint64(n))) + n
				}
			}
		}
		ops = l.launch(ops, des.Op{Kind: des.KindAllGather, Sizes: sizes, Category: "kfac-allgather"}, 1+len(l.buckets)+rd)
	}
	for rd := range rounds {
		ops = l.wait(ops, 1+len(l.buckets)+rd)
		for s := 0; s < l.p && l.m.Pipeline != nil; s++ {
			for gi := rd * l.perRound; gi < min((rd+1)*l.perRound, len(l.groups[s])); gi++ {
				ops = append(ops, des.Op{Kind: des.KindCompute, Seconds: a100.DecompressTime(*l.m.Pipeline, sum(s, gi, elems)), Category: "decompress"})
			}
		}
	}
	return ops
}
