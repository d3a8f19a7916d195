package train

import (
	"fmt"
	"math"
	"math/rand/v2"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/des"
	"compso/internal/fault"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/obs"
	"compso/internal/opt"
	"compso/internal/pool"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// A training step is Figure 2's dataflow — gradient average → factor sync →
// owned-layer eigendecomposition → precondition + compress per aggregation
// group → all-gather → decode/install — written once, as stages over the
// cluster's launch/wait collective handles, followed by the optimizer
// update. A schedule is one of the stage tables below, read twice: the live
// pipeline runs each stage on a worker (stage.run), and the lowering
// (lower.go) emits each stage's des.Program ops (stage.lower).
//
// Sequential is Figure-2 order with every wait directly after its launch.
// Overlap launches the factor sum and the gradient buckets back-to-back,
// eigendecomposes while they are on the wire, and pipelines the exchange,
// so round r decodes while rounds r+1… are in flight. The collectives,
// their order, the compressed bytes and the installed values are the same
// under every schedule, so the numerics are bit-identical (DESIGN.md §8);
// only the simulated schedule moves.

// stage is one entry of a schedule. Consecutive stages naming the same
// phase run inside one obs phase span.
type stage struct {
	phase string
	run   func(*pipeline) error
	// lower returns the stage's ops, the same every step it runs; nil for
	// a stage the lowering does not cover.
	lower func(*lowering) []des.Op
	// when gates the stage (and with it the opening of its phase) on the
	// step; nil runs it every step.
	when func(cfg Config, it int) bool
}

// statStep gates the factor stages, eigenStep the eigendecompositions: the
// optimizer's InvFreq cadence, its step count being the iteration's.
func statStep(cfg Config, it int) bool  { return it%cfg.StatFreq == 0 }
func eigenStep(cfg Config, it int) bool { return it%max(cfg.KFAC.InvFreq, 1) == 0 }

var (
	sequentialKFAC = []stage{
		{"grad-sync", (*pipeline).launchGrads, (*lowering).launchGrads, nil},
		{"grad-sync", (*pipeline).installGrads, (*lowering).installGrads, nil},
		{"factor-sync", (*pipeline).launchStats, (*lowering).launchStats, statStep},
		{"factor-sync", (*pipeline).commitStats, (*lowering).commitStats, statStep},
		{"eigendecomp", (*pipeline).eigen, (*lowering).eigen, eigenStep},
		{"precond-exchange", (*pipeline).exchange, (*lowering).exchange, nil},
	}
	overlapKFAC = []stage{
		{"grad-launch", (*pipeline).launchStats, (*lowering).launchStats, statStep},
		{"grad-launch", (*pipeline).launchGrads, (*lowering).launchGrads, nil},
		{"factor-sync", (*pipeline).commitStats, (*lowering).commitStats, statStep},
		{"eigendecomp", (*pipeline).eigen, (*lowering).eigen, eigenStep},
		{"grad-install", (*pipeline).installGrads, (*lowering).installGrads, nil},
		{"precond-exchange", (*pipeline).exchange, (*lowering).exchange, nil},
	}
)

// stagesFor picks cfg's schedule. A first-order step's exchange follows its
// compressor: the gradient buckets when there is none, else a blob or ring
// family's.
func stagesFor(cfg Config, compressed, ring bool) []stage {
	switch {
	case cfg.UseKFAC && cfg.Overlap:
		return overlapKFAC
	case cfg.UseKFAC:
		return sequentialKFAC
	case ring:
		// The low-rank family's alternating P/Q factors aggregate as a sum,
		// so its exchange is a ring all-reduce over one factor.
		return []stage{{"grad-sync", (*pipeline).lowrank, nil, nil}}
	case compressed:
		return []stage{{"grad-sync", (*pipeline).gatherGrads, (*lowering).gatherGrads, nil}}
	}
	return sequentialKFAC[:2]
}

// shape is the layout of a step, a function of the gradient sizes, the
// K-FAC layer count and cfg's Workers, Overlap, FusionBytes and
// AggregationM only. Overlap caps the gradient buckets at FusionBytes (one
// whole-model bucket otherwise) and sends one aggregation group per
// exchange round (otherwise every group of rank 0, which owns the most).
// owned[r] lists rank r's layers under the round-robin split and groups[r]
// the same layers cut into aggregation groups.
type shape struct {
	buckets  []bucket
	owned    [][]int
	groups   [][][]int
	perRound int
}

func newShape(cfg Config, grads []int, nLayers int) shape {
	limit, p := math.MaxInt, cfg.Workers
	if cfg.Overlap {
		limit = cfg.FusionBytes
	}
	s := shape{buckets: fuseBuckets(grads, limit), owned: make([][]int, p), groups: make([][][]int, p), perRound: 1}
	for r := range p {
		for li := r; li < nLayers; li += p {
			s.owned[r] = append(s.owned[r], li)
		}
		for g := 0; g < len(s.owned[r]); g += cfg.AggregationM {
			end := min(g+cfg.AggregationM, len(s.owned[r]))
			s.groups[r] = append(s.groups[r], s.owned[r][g:end:end])
		}
	}
	if !cfg.Overlap {
		s.perRound = max(1, len(s.groups[0]))
	}
	return s
}

// pipeline is one worker's per-run training state plus the in-flight
// handles its stages pass each other within a step.
type pipeline struct {
	w          *cluster.Worker
	cfg        Config
	task       *modelzoo.ProxyTask
	sgd        *opt.SGD   // first-order runs
	k          *kfac.KFAC // K-FAC runs
	comp       compress.Compressor
	layerComps map[int]compress.Compressor // per-layer plan: this rank's owned layers
	tel        *tele
	fc         *faultCtx
	cr         *crAccum
	// dataSrc is held next to the Rand wrapping it so its exact stream
	// position can be checkpointed and restored.
	dataSrc *rand.PCG
	dataRng *rand.Rand
	// x, y and grad are the step's batch and the loss gradient, the
	// pipeline's own storage, valid until its next step.
	x, y, grad tensor.Matrix

	stages []stage
	shape
	// decode decompresses one gathered K-FAC frame; nil when frames are
	// lossless FP32.
	decode func([]byte) ([]float32, error)

	// Per-step state.
	lr      float64
	pend    []*cluster.PendingReduce
	bufs    [][]float64 // pooled bucket staging, nil once scattered
	cov     []float64
	covPend *cluster.PendingReduce
}

// newPipeline builds the worker's replica, optimizer and compressors and
// fixes its schedule. Every worker builds an identical model; the data
// stream is distinct per worker.
func newPipeline(w *cluster.Worker, cfg Config, cr *crAccum, tally map[string]int64) *pipeline {
	p := &pipeline{w: w, cfg: cfg, cr: cr, tel: newTele(w)}
	p.task = cfg.BuildTask(xrand.NewSeeded(cfg.Seed))
	p.dataSrc = xrand.NewPCG(cfg.Seed*1000 + 7 + int64(w.Rank()))
	p.dataRng = rand.New(p.dataSrc)
	if cfg.NewCompressor != nil {
		p.comp = cfg.NewCompressor(w.Rank())
	}
	if tally != nil {
		// Fault tallies survive restart attempts (rank 0 is the only
		// writer, and attempts are sequential).
		p.tel.faults = tally
	}
	p.fc = newFaultCtx(w, cfg, p.tel)

	ar, _ := ringCompressor(p.comp)
	p.stages = stagesFor(cfg, p.comp != nil, ar != nil)
	params := p.task.Model.Params()
	sizes := make([]int, len(params))
	for i, pm := range params {
		sizes[i] = len(pm.Grad.Data)
	}
	if !cfg.UseKFAC {
		p.sgd = opt.NewSGD(0.9, 0)
		p.shape = newShape(cfg, sizes, 0)
	} else {
		p.k = kfac.New(p.task.Model, cfg.KFAC)
		p.shape = newShape(cfg, sizes, p.k.NumLayers())
	}
	p.pend = make([]*cluster.PendingReduce, len(p.buckets))
	p.bufs = make([][]float64, len(p.buckets))
	if p.k == nil {
		return p
	}
	switch {
	case cfg.NewLayerCompressor != nil:
		// Built once per worker for its owned layers, so stateful families
		// (PowerSGD warm starts, EF residuals) persist across steps exactly
		// like the single compressor. Receivers decode the mixed-family
		// frames by magic byte.
		p.layerComps = make(map[int]compress.Compressor)
		for _, li := range p.owned[w.Rank()] {
			p.layerComps[li] = cfg.NewLayerCompressor(w.Rank(), li)
		}
		p.decode = compress.Decode
	case p.comp != nil:
		p.decode = p.comp.Decompress
	}
	return p
}

// step runs iteration it: forward/backward on this worker's next batch,
// then the schedule's stages. The step span and the phase span open at the
// time are closed on every way out — an error return or a worker-loss
// panic unwinding through here included — at the worker's current clock,
// so a crash-recovered run's trace has no span ending before its children.
func (p *pipeline) step(it int) error {
	w, tel, task := p.w, p.tel, p.task
	w.SetStep(it)
	p.crashAt(fault.CrashAtStepStart)
	tel.beginStep(it)
	defer tel.endStep(it)
	if p.cfg.Controller != nil {
		if cc, ok := p.comp.(*compress.COMPSO); ok {
			p.cfg.Controller.Apply(it, cc)
			tel.controller(p.cfg.Controller, it)
		}
	}
	task.Data.SampleInto(p.dataRng, task.Batch, &p.x, &p.y)
	logits := task.Model.Forward(&p.x, true)
	task.Loss.LossInto(logits, &p.y, &p.grad)
	task.Model.ZeroGrad()
	task.Model.Backward(&p.grad)
	p.crashAt(fault.CrashMidStep)

	p.lr = p.cfg.Schedule.LR(it)
	// The install stage recycles the buckets; this sweep only pays out when
	// the step unwinds between launch and install.
	defer p.releaseBuckets()
	var phase string
	var span obs.SpanID
	defer func() { tel.endPhase(span) }()
	for _, st := range p.stages {
		if st.when != nil && !st.when(p.cfg, it) {
			continue
		}
		if st.phase != phase {
			tel.endPhase(span)
			phase, span = st.phase, tel.beginPhase(st.phase)
		}
		if err := st.run(p); err != nil {
			return err
		}
	}
	if p.k != nil {
		return p.k.ApplyUpdate(p.lr)
	}
	p.sgd.Step(task.Model.Params(), p.lr)
	return nil
}

// crashAt kills this worker if the fault plan schedules its loss at this
// point of the current step. (Mid-collective losses fire inside the
// cluster's collective entry.)
func (p *pipeline) crashAt(point fault.CrashPoint) {
	if due, ok := p.w.CrashDue(); ok && due == point {
		p.w.Crash(point.String())
	}
}

// launchGrads flattens the model gradient into the fused buckets and
// launches one all-reduce per bucket. The pooled staging buffers are read
// only during each launch rendezvous and receive the bucket's sum at Wait.
func (p *pipeline) launchGrads() error {
	params := p.task.Model.Params()
	for b, bk := range p.buckets {
		p.bufs[b] = flattenGrads(pool.F64(bk.elems)[:0], params[bk.start:bk.end])
		p.pend[b] = p.w.AllReduceAsync(p.bufs[b], "grad-allreduce")
	}
	return nil
}

// installGrads waits for each bucket in launch order and scatters the
// averaged gradients back into the parameter tensors.
func (p *pipeline) installGrads() error {
	params := p.task.Model.Params()
	inv := 1.0 / float64(p.w.Size())
	for b, bk := range p.buckets {
		p.pend[b].Wait()
		scatterGrads(params[bk.start:bk.end], p.bufs[b], inv)
	}
	p.releaseBuckets()
	return nil
}

func (p *pipeline) releaseBuckets() {
	for b, buf := range p.bufs {
		if buf != nil {
			pool.PutF64(buf)
			p.bufs[b] = nil
		}
	}
}

// lowrank is the ring family's first-order exchange (lowrankSync).
func (p *pipeline) lowrank() error {
	ar, ef := ringCompressor(p.comp)
	return lowrankSync(p.w, p.task.Model, ar, ef, p.tel, p.cr, "grad-lowrank-allreduce")
}

// gatherGrads is the compressed first-order exchange: each worker
// compresses its whole-model gradient, all-gathers the blobs, and averages
// the decompressed replicas — the all-gather-based scheme that avoids ring
// error propagation. The compression unit never shrinks to a bucket: that
// would re-frame the stateful COMPSO stream and shift every per-call
// max-abs scale.
func (p *pipeline) gatherGrads() error {
	params := p.task.Model.Params()
	flat := flatGrads32(params)
	defer pool.PutF32(flat)
	sum := pool.F64(len(flat))
	defer pool.PutF64(sum)
	blobLen, err := p.gatherSum(p.comp, p.fc, flat, sum, "grad-allgather")
	if err != nil {
		return fmt.Errorf("train: gathered gradients: %w", err)
	}
	p.tel.filterStats(p.comp)
	recordCR(len(flat), blobLen, p.cr)
	scatterGrads(params, sum, 1.0/float64(p.w.Size()))
	return nil
}

// gatherSum compresses vals, all-gathers every rank's blob and sums the
// decompressed replicas into sum in rank order; every worker decodes
// identical bytes, so the replicas stay consistent. It returns this
// rank's blob size. fc is nil for an exchange outside the fault model.
func (p *pipeline) gatherSum(comp compress.Compressor, fc *faultCtx, vals []float32, sum []float64, category string) (int, error) {
	blob, err := comp.Compress(vals)
	if err != nil {
		return 0, err
	}
	p.tel.compress(fused, len(vals), len(blob), category)
	parts := p.w.AllGather(blob, category)
	clear(sum)
	rx := gatherRx{
		tel: p.tel, fc: fc, category: category,
		frames: wholeBlob, decode: comp.Decompress, install: sumInto(sum),
		own: blob, ownRaw: func() []byte { return appendF32(nil, vals) },
	}
	return len(blob), rx.receive(parts)
}

// launchStats computes this step's local covariance contribution and
// launches its sum. The compressed factor exchange has no launch half: it
// is an all-gather + local sum whose result feeds the commit immediately.
func (p *pipeline) launchStats() error {
	p.k.AccumulateStats(p.task.Batch)
	// One buffer serves every stat step: the launch rendezvous is the only
	// reader besides this rank, commitStats has folded the last sum into the
	// factors before the next launch, and the factors (which checkpoints
	// copy) are the only thing that outlives the step.
	p.cov = p.k.AppendPendingCovariances(p.cov[:0])
	if !p.cfg.CompressFactors {
		p.covPend = p.w.AllReduceAsync(p.cov, "kfac-allreduce")
	}
	return nil
}

// commitStats completes the factor sum and folds it into the running
// Kronecker factors.
func (p *pipeline) commitStats() error {
	if p.cfg.CompressFactors {
		if err := p.compressedFactorExchange(p.cov); err != nil {
			return err
		}
	} else {
		p.covPend.Wait()
	}
	return p.k.CommitCovariances(p.cov, p.w.Size())
}

// compressedFactorExchange replaces the factor all-reduce with a
// compressed all-gather + local sum of each worker's error-bound-compressed
// float32 factor contribution, back into cov. It sits outside the fault
// model: no corruption draws, no recovery ladder.
func (p *pipeline) compressedFactorExchange(cov []float64) error {
	comp := compress.NewCOMPSO(991 + int64(p.w.Rank()))
	comp.FilterEnabled = true
	comp.EBFilter = p.cfg.FactorEB
	comp.EBQuant = p.cfg.FactorEB
	local := pool.F32(len(cov))
	defer pool.PutF32(local)
	for i, v := range cov {
		local[i] = float32(v)
	}
	if _, err := p.gatherSum(comp, nil, local, cov, "kfac-allreduce"); err != nil {
		return fmt.Errorf("train: factor exchange: %w", err)
	}
	return nil
}

// eigen refreshes the eigendecompositions of this rank's layers. They are
// independent per layer (each touches only its own layer state), so the
// real compute fans out over the shared worker pool; the simulated-time
// charges replay serially in layer order. Layers whose factors are
// unchanged since the last commit are version-cache hits inside
// RefreshEigen and skip the solve — the timing model still charges them,
// so the simulated results are independent of the cache.
func (p *pipeline) eigen() error {
	owned := p.owned[p.w.Rank()]
	errs := make([]error, len(owned))
	pool.ParallelFor(len(owned), 0, func(j int) {
		errs[j] = p.k.RefreshEigen(owned[j])
	})
	for j, li := range owned {
		if errs[j] != nil {
			return errs[j]
		}
		p.tel.eigen(p.k, li)
	}
	return nil
}

// exchange preconditions this rank's layers, compresses them per
// aggregation group, all-gathers the frames perRound groups at a time, and
// installs every rank's preconditioned gradients. Each round launches as
// soon as its frames are ready and the rounds are waited in launch order.
// Every rank runs rank 0's round count — it owns the most groups — and
// contributes an empty payload to rounds its own groups do not reach.
func (p *pipeline) exchange() error {
	w, k, tel := p.w, p.k, p.tel
	groups := p.groups[w.Rank()]
	type round struct {
		payload []byte
		// flats are the round's uncompressed groups, from which a lossless
		// fallback builds the payload's FP32 mirror.
		flats   [][]float32
		pending *cluster.PendingGather
	}
	rounds := make([]round, (len(p.groups[0])+p.perRound-1)/p.perRound)
	for r := range rounds {
		rd := &rounds[r]
		for gi := r * p.perRound; gi < min((r+1)*p.perRound, len(groups)); gi++ {
			g := groups[gi]
			grads := make([][]float32, len(g))
			for i, li := range g {
				vals, err := k.Precondition(li)
				if err != nil {
					return err
				}
				tel.precondition(k, li)
				grads[i] = vals
			}
			flat := compso.Concat(grads)
			rd.flats = append(rd.flats, flat)
			gcomp := p.comp
			if p.layerComps != nil {
				// AggregationM == 1: each group is exactly one owned layer.
				gcomp = p.layerComps[g[0]]
			}
			if gcomp == nil {
				rd.payload = appendRawFrame(rd.payload, flat)
				continue
			}
			blob, err := gcomp.Compress(flat)
			if err != nil {
				return err
			}
			tel.compress(compressorPipe(gcomp), len(flat), len(blob), "kfac-allgather")
			tel.filterStats(gcomp)
			recordCR(len(flat), len(blob), p.cr)
			rd.payload = appendFrame(rd.payload, blob)
		}
		rd.pending = w.AllGatherAsync(rd.payload, "kfac-allgather")
	}
	for r := range rounds {
		rd, first := &rounds[r], r*p.perRound
		rx := gatherRx{
			tel: tel, fc: p.fc, category: "kfac-allgather", decode: p.decode,
			frames: func(sender int, part []byte) ([][]byte, error) {
				return readFrames(part, min(max(len(p.groups[sender])-first, 0), p.perRound), sender)
			},
			install: func(sender, frame int, vals []float32) error {
				return p.installGroup(p.groups[sender][first+frame], vals)
			},
			own: rd.payload,
			ownRaw: func() []byte {
				var raw []byte
				for _, flat := range rd.flats {
					raw = appendRawFrame(raw, flat)
				}
				return raw
			},
		}
		if err := rx.receive(rd.pending.Wait()); err != nil {
			return err
		}
	}
	return nil
}

// installGroup splits one decoded aggregation group into its layers and
// installs them; SetPreconditioned copies, and installs are
// keyed by layer, so the order rounds arrive in does not matter.
func (p *pipeline) installGroup(g []int, vals []float32) error {
	lengths := make([]int, len(g))
	for i, li := range g {
		lengths[i] = p.k.LayerGradSize(li)
	}
	split, err := compso.Split(vals, lengths)
	if err != nil {
		return fmt.Errorf("%w: %v", compress.ErrCorrupt, err)
	}
	for i, li := range g {
		if err := p.k.SetPreconditioned(li, split[i]); err != nil {
			return err
		}
	}
	return nil
}
