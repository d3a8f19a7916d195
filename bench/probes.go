package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"compso/internal/cluster"
	"compso/internal/collective"
	"compso/internal/compress"
	"compso/internal/des"
	"compso/internal/encoding"
	"compso/internal/kfac"
	"compso/internal/obs"
	"compso/internal/quant"
	"compso/internal/tensor"
	"compso/internal/train"
	"compso/internal/xrand"
)

// The probes are the per-layer half of a traced run: each times calls into
// one layer's exported functions, on inputs drawn from the run's seed with
// the same generators and sizes the workloads use. They run the same way
// whichever workload the traced run belongs to, so a layer's numbers from
// the six traced runs are six samples of one quantity.

// msMedian runs fn reps times and returns the median wall time in ms.
func msMedian(reps int, fn func()) float64 {
	samples := make([]float64, reps)
	for i := range samples {
		start := time.Now()
		fn()
		samples[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(samples)
}

// mbps converts bytes processed in ms milliseconds to MB/s.
func mbps(bytes int, ms float64) float64 { return float64(bytes) / 1e6 / (ms / 1e3) }

// probes runs every layer probe and records its metrics in out. A probe
// whose outputs are wrong counts one failed op in m.
func probes(p params, out *metricSet, m *meter, log io.Writer) error {
	sz := sizesFor(p.small)
	for _, probe := range []struct {
		name string
		run  func(params, sizes, *metricSet, *meter) error
	}{
		{"stages", probeStages}, {"compress", probeCompress}, {"cluster", probeCluster},
		{"collective", probeCollective}, {"compute", probeCompute}, {"train", probeTrain},
		{"serve", probeServe}, {"des", probeDES},
	} {
		start := time.Now()
		if err := probe.run(p, sz, out, m); err != nil {
			return fmt.Errorf("probe %s: %w", probe.name, err)
		}
		fmt.Fprintf(log, "probe %-10s %6.2f s\n", probe.name, time.Since(start).Seconds())
	}
	return nil
}

// probeStages times the fused kernel's stages one by one on a codec_4mb
// tensor: filter+quantize, byte-plane fill, rANS encode and decode.
func probeStages(p params, sz sizes, out *metricSet, m *meter) error {
	const reps = 9
	n := sz.codecElems
	x := kfacTensors(xrand.NewSeeded(p.seed), 1, n, 1, 1)[0]
	const eb = 4e-3 // the registry compso's default bounds
	binW := quant.BinWidth(eb, quant.SR)
	pcg := xrand.NewPCG(p.seed)
	bitmap := make([]byte, (n+7)/8)
	zigs := make([]uint32, n)
	kept, _ := quant.FilterQuantizeZigPCG(bitmap, zigs, x, eb, binW, pcg)
	m.attempted++
	if kept <= 0 || kept > n {
		m.fail("probe quant: kept %d of %d", kept, n)
		return nil
	}
	out.set("quant.filter_quantize_mbps", mbps(4*n, msMedian(reps, func() {
		quant.FilterQuantizeZigPCG(bitmap, zigs, x, eb, binW, pcg)
	})))
	out.set("quant.kept_share", float64(kept)/float64(n))
	plane := make([]byte, kept)
	out.set("quant.fill_plane_mbps", mbps(4*kept, msMedian(reps, func() {
		quant.FillPlane(plane, zigs[:kept], 0)
	})))

	ans := encoding.ANS{}
	enc := make([]byte, 0, kept)
	out.set("encoding.ans_encode_mbps", mbps(kept, msMedian(reps, func() {
		enc = ans.EncodeAppend(enc[:0], plane)
	})))
	out.set("encoding.ans_out_share", float64(len(enc))/float64(kept))
	scratch := make([]byte, kept)
	var dec []byte
	var err error
	out.set("encoding.ans_decode_mbps", mbps(kept, msMedian(reps, func() {
		dec, err = ans.DecodeInto(scratch, enc)
	})))
	if err != nil || !bytes.Equal(dec, plane) {
		m.fail("probe encoding: rANS did not restore the plane (%v)", err)
	}
	return nil
}

// probeCompress times the whole compso kernel on one codec_4mb tensor, and
// PowerSGD on a gradient the size of the proxy model's largest layer.
func probeCompress(p params, sz sizes, out *metricSet, m *meter) error {
	const reps = 9
	n := sz.codecElems
	x := kfacTensors(xrand.NewSeeded(p.seed), 1, n, 1, 1)[0]
	comp, bound, err := newCOMPSO(p.seed)
	if err != nil {
		return err
	}
	blob, err := comp.Compress(x) // warm-up; also the blob the decode side uses
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out.set("compress.compress_mbps", mbps(4*n, msMedian(reps, func() { blob, err = comp.Compress(x) })))
	if err != nil {
		return err
	}
	var xhat []float32
	out.set("compress.decompress_mbps", mbps(4*n, msMedian(reps, func() { xhat, err = comp.Decompress(blob) })))
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	out.set("compress.alloc_kb_per_call", float64(after.TotalAlloc-before.TotalAlloc)/1e3/(2*reps))
	out.set("compress.blob_bytes_per_op", float64(len(blob)))
	m.attempted++
	if msg := restored(x, xhat, bound); msg != "" {
		m.fail("probe compress: %s", msg)
	}
	worst := 0.0
	for i := range x {
		worst = math.Max(worst, math.Abs(float64(x[i]-xhat[i])))
	}
	out.set("compress.err_over_bound_max", worst/bound)

	largest := 0
	for _, prm := range sz.task(xrand.NewSeeded(p.seed)).Model.Params() {
		largest = max(largest, len(prm.Grad.Data))
	}
	g := make([]float32, largest)
	xrand.SGDGradient(xrand.NewSeeded(p.seed), g, 1)
	ps, err := compress.ByName("powersgd", compress.Options{Rank: 4, Seed: p.seed})
	if err != nil {
		return err
	}
	out.set("compress.powersgd_compress_us", 1e3*msMedian(101, func() { _, err = ps.Compress(g) }))
	return err
}

// probeCluster times the goroutine cluster: one chunk of exchange_p8 steps
// with spans on rank 0, a bare all-reduce at P=4, and an empty Run at P=8.
func probeCluster(p params, sz sizes, out *metricSet, m *meter) error {
	inst, err := setupExchange(p, m)
	if err != nil {
		return err
	}
	e := inst.(*exchangeInst)
	tr := newTracer()
	pm := &meter{}
	e.runChunk(pm, tr.track(0), sz.exchangeChunk, false)
	m.merge(pm)
	var gatherMs, opMs float64
	gathers := 0
	for _, s := range tr.tracks[0].spans {
		d := float64((s.end - s.start).Nanoseconds()) / 1e6
		switch s.name {
		case "cluster.AllGather":
			gatherMs += d
			gathers++
		case opSpan:
			opMs += d
		}
	}
	out.set("cluster.allgather_ms", gatherMs/float64(gathers))
	out.set("cluster.wait_share", gatherMs/opMs)
	out.set("cluster.sim_ms_per_step", pm.simMs/float64(sz.exchangeChunk))

	const reduces = 200
	var perReduce time.Duration
	cluster.New(cluster.Platform1(), 4).Run(func(w *cluster.Worker) {
		buf := make([]float64, 16<<10)
		w.AllReduce(buf, "probe") // warm-up
		start := time.Now()
		for i := 0; i < reduces; i++ {
			w.AllReduce(buf, "probe")
		}
		if w.Rank() == 0 {
			perReduce = time.Since(start) / reduces
		}
	})
	out.set("cluster.allreduce_us_p4", float64(perReduce.Nanoseconds())/1e3)
	out.set("cluster.spawn_ms", msMedian(21, func() {
		cluster.New(cluster.Platform1(), exchangeRanks).Run(func(*cluster.Worker) {})
	}))

	// The engine alone, on the blob sizes those steps exchanged.
	sizes := make([]int, exchangeRanks)
	for r := range sizes {
		blob, err := e.comps[r].Compress(e.tensors[r])
		if err != nil {
			return err
		}
		sizes[r] = len(blob)
	}
	eng := cluster.EngineFor(cluster.Platform1(), exchangeRanks)
	starts := make([]float64, exchangeRanks)
	out.set("collective.exec_us_p8_allgather", 1e3*msMedian(201, func() {
		eng.Exec(collective.OpAllGather, sizes, 0, starts)
	}))
	return nil
}

// probeCollective times single hierarchical collectives at des_p4096's
// world size and message sizes, straight on the engine.
func probeCollective(p params, sz sizes, out *metricSet, m *meter) error {
	d, err := newDES(p.seed, 1, sz.desRanks)
	if err != nil {
		return err
	}
	// The program's largest all-reduce and its K-FAC all-gather.
	var reduceBytes int
	var gather []int
	for _, op := range d.prog {
		switch op.Kind {
		case des.KindAllReduce:
			reduceBytes = max(reduceBytes, 4*op.Elems)
		case des.KindAllGather:
			gather = op.Sizes
			if len(gather) == 1 { // one size stands for every rank
				gather = make([]int, sz.desRanks)
				for i := range gather {
					gather[i] = op.Sizes[0]
				}
			}
		}
	}
	m.attempted++
	if reduceBytes == 0 || len(gather) != sz.desRanks {
		m.fail("probe collective: program has no all-reduce or no %d-rank all-gather", sz.desRanks)
		return nil
	}
	eng := cluster.EngineFor(d.cfg, sz.desRanks)
	eng.SetEventRetention(false) // as des.NewWorld sets it
	starts := make([]float64, sz.desRanks)
	out.set("collective.exec_ms_p4096_allreduce", msMedian(5, func() {
		eng.Exec(collective.OpAllReduce, []int{reduceBytes}, 0, starts)
	}))
	out.set("collective.exec_ms_p4096_allgather", msMedian(5, func() {
		eng.Exec(collective.OpAllGather, gather, 0, starts)
	}))
	return nil
}

// probeCompute times the host compute of a training step on the proxy
// model: forward+backward, the eigendecomposition and the preconditioner.
func probeCompute(p params, sz sizes, out *metricSet, m *meter) error {
	rng := xrand.NewSeeded(p.seed)
	task := sz.task(rng)
	x, y := task.Data.Sample(rng, task.Batch)
	step := func() {
		task.Model.ZeroGrad()
		_, grad := task.Loss.Loss(task.Model.Forward(x, true), y)
		task.Model.Backward(grad)
	}
	step()
	out.set("nn.fwd_bwd_ms", msMedian(51, step))

	n := sz.eigenN
	b := tensor.New(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	sym := tensor.New(0, 0).MatMulT(b, b)
	var err error
	out.set("tensor.eigensym_ms_n128", msMedian(3, func() { _, err = tensor.EigenSym(sym) }))
	if err != nil {
		return err
	}

	k := kfac.New(task.Model, kfac.DefaultConfig())
	// RefreshEigen is a cache hit until new statistics are committed, so
	// every timed refresh follows an untimed accumulate+commit.
	commit := func() error {
		k.AccumulateStats(task.Batch)
		return k.CommitCovariances(k.PendingCovariances(), 1)
	}
	refresh := make([]float64, 2)
	for i := range refresh {
		if err := commit(); err != nil {
			return err
		}
		start := time.Now()
		for l := 0; l < k.NumLayers(); l++ {
			if err := k.RefreshEigen(l); err != nil {
				return err
			}
		}
		refresh[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	out.set("kfac.refresh_eigen_ms", median(refresh))
	out.set("kfac.precondition_ms", msMedian(21, func() {
		for l := 0; l < k.NumLayers() && err == nil; l++ {
			_, err = k.Precondition(l)
		}
	}))
	return err
}

// probeTrain times train.Run itself at half a train_* op's length: the K-FAC
// step, the overlap scheduler against the sequential one, the SGD step.
func probeTrain(p params, sz sizes, out *metricSet, m *meter) error {
	timed := func(cfg train.Config) (*train.Result, float64, error) {
		start := time.Now()
		res, err := train.Run(cfg)
		return res, float64(time.Since(start).Nanoseconds()) / 1e6, err
	}
	cfg := kfacOverlapConfig(p.seed, sz, max(1, sz.kfacIters/2))
	cfg.Obs = obs.NewRecorder()
	over, overMs, err := timed(cfg)
	if err != nil {
		return err
	}
	out.set("train.step_ms", overMs/float64(cfg.Iters))
	out.set("train.final_loss", over.FinalLoss)
	out.set("train.sim_comm_ms_per_step", commMs(over)/float64(cfg.Iters))
	out.set("train.hidden_comm_fraction", over.Metrics.Gauges["overlap/hidden_comm_fraction"])

	seqCfg := kfacOverlapConfig(p.seed, sz, cfg.Iters)
	seqCfg.Overlap = false
	seq, seqMs, err := timed(seqCfg)
	if err != nil {
		return err
	}
	out.set("train.overlap_vs_seq_wall", overMs/seqMs)
	m.attempted++
	if len(seq.Losses) != len(over.Losses) || seq.FinalLoss != over.FinalLoss {
		m.fail("probe train: overlap and sequential schedules disagree on the loss")
	}
	for i := range seq.Losses {
		if seq.Losses[i] != over.Losses[i] {
			m.fail("probe train: overlap and sequential schedules disagree on loss %d", i)
			break
		}
	}

	sgd := sgdLowRankConfig(p.seed, sz, max(1, sz.sgdIters/8))
	_, sgdMs, err := timed(sgd)
	if err != nil {
		return err
	}
	out.set("train.sgd_step_ms", sgdMs/float64(sgd.Iters))
	return nil
}

// smallRequest is the size, in elements, up to which serve.small_req_p50_us
// counts a request: ResNet-50's 1x1 convolutions on 64 channels and its stem.
const smallRequest = 16 << 10

// probeServe drives a fresh server the way serve_mix does, two clients in a
// closed loop, and splits the request times by kind and size; then one
// client alone compares each request with the same call made on the library.
func probeServe(p params, sz sizes, out *metricSet, m *meter) error {
	inst, err := setupServe(p, m)
	if err != nil {
		return err
	}
	s := inst.(*serveInst)
	// Five passes over 54 tensors, two requests each, two clients: 1080
	// samples, enough for a p99 with ten samples beyond it.
	const passes = 5
	meters := make([]*meter, len(s.clients))
	var wg sync.WaitGroup
	for k, c := range s.clients {
		meters[k] = &meter{}
		wg.Add(1)
		go func(c *serveClient, pm *meter) {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				for i := range c.bodies {
					c.roundTrip(i, pm, nil, false, false)
				}
			}
		}(c, meters[k])
	}
	wg.Wait()
	var all, comp, decomp, small, large []float64
	shed := 0
	for k, pm := range meters {
		m.merge(pm)
		shed += pm.shed
		if pm.failed > 0 {
			return nil // the samples no longer line up with the tensors
		}
		for j, ms := range pm.opMs {
			bodies := s.clients[k].bodies
			n := len(bodies[(j/2)%len(bodies)]) / 4
			all = append(all, ms)
			if j%2 == 0 {
				comp = append(comp, ms)
			} else {
				decomp = append(decomp, ms)
			}
			if n <= smallRequest {
				small = append(small, ms)
			}
			if n >= sz.serveCap/2 {
				large = append(large, ms)
			}
		}
	}
	out.set("serve.compress_req_p50_ms", median(comp))
	out.set("serve.decompress_req_p50_ms", median(decomp))
	p99, ok := percentile(all, 0.99)
	if !ok {
		return fmt.Errorf("probe serve: %d samples are too few for a p99", len(all))
	}
	out.set("serve.req_p99_ms", p99)
	out.set("serve.small_req_p50_us", 1e3*median(small))
	out.set("serve.large_req_p50_ms", median(large))
	out.set("serve.shed_share", float64(shed)/float64(len(all)))

	c := s.clients[0]
	var viaHTTP, direct float64
	for _, body := range c.bodies {
		x := bytesF32(body)
		viaHTTP += msMedian(3, func() { c.post(c.base+"/compress", body) })
		direct += msMedian(3, func() { _, err = c.twin.Compress(x) })
		if err != nil {
			return err
		}
	}
	out.set("serve.shell_overhead_us", 1e3*(viaHTTP-direct)/float64(len(c.bodies)))

	body := []byte(`{"tenant":"probe"}`)
	out.set("serve.session_create_us", 1e3*msMedian(51, func() {
		if c.post("/v1/sessions", body) != http.StatusCreated {
			err = fmt.Errorf("probe serve: create session: status %d", c.rw.code)
		}
	}))
	return err
}

// probeDES replays half of the des_p4096 program at a quarter, half and the
// whole of its world size and fits the exponent of host time against ranks.
// Replays of one program do identical work, so each size reports its fastest.
func probeDES(p params, sz sizes, out *metricSet, m *meter) error {
	steps := max(1, sz.desSteps/2)
	replay := func(ranks, reps int) (ms float64, d *desInst, err error) {
		if d, err = newDES(p.seed, steps, ranks); err != nil {
			return 0, nil, err
		}
		pm := &meter{}
		for i := 0; i < reps; i++ {
			d.one(pm, nil)
		}
		m.merge(pm)
		return slices.Min(pm.opMs), d, nil
	}
	quarter, dq, err := replay(sz.desRanks/4, 3)
	if err != nil {
		return err
	}
	dq.world.Release()
	half, dh, err := replay(sz.desRanks/2, 3)
	if err != nil {
		return err
	}
	dh.world.Release()
	out.set("des.build_program_ms", msMedian(3, func() { _, _, err = desProgram(p.seed, steps, sz.desRanks) }))
	if err != nil {
		return err
	}
	full, d, err := replay(sz.desRanks, 2)
	if err != nil {
		return err
	}
	defer d.world.Release()
	out.set("des.replay_ms_per_step_p1024", quarter/float64(steps))
	out.set("des.replay_ms_per_step_p2048", half/float64(steps))
	out.set("des.replay_ms_per_step", full/float64(steps))
	out.set("des.collectives_per_s", float64(d.world.Collectives())/(full/1e3))
	out.set("des.bytes_per_rank", float64(d.world.Footprint())/float64(sz.desRanks))
	out.set("des.sim_ms_per_step", d.world.MaxTime()*1e3/float64(steps))
	out.set("des.scale_exponent", math.Log2(full/quarter)/2)
	return nil
}
