package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/dataset"
	"compso/internal/des"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/nn"
	"compso/internal/opt"
	"compso/internal/serve"
	"compso/internal/train"
	"compso/internal/xrand"
)

// sizes holds every input size and op length of the six workloads and the
// probes. full is what BENCHMARK.json measures; small is the self-test's.
type sizes struct {
	codecElems    int // elements per codec_4mb tensor
	exchangeElems int // elements per rank in exchange_p8
	exchangeChunk int // steps per cluster.Run; the last step of a chunk is checked
	kfacIters     int // steps per train_kfac_overlap op
	sgdIters      int // steps per train_sgd_lowrank op
	serveCap      int // element cap of a serve_mix request
	desRanks      int // world size of des_p4096
	desSteps      int // training steps in the replayed program
	// task builds the proxy model the train workloads and compute probes use.
	task   func(*rand.Rand) *modelzoo.ProxyTask
	eigenN int // order of the matrix tensor.eigensym_ms_n128 decomposes
	// setupBudget is how long an untraced run goes on repeating a cheap
	// set-up beyond the minimum of three (see untracedRun).
	setupBudget time.Duration
}

func sizesFor(small bool) sizes {
	if small {
		return sizes{
			codecElems: 1 << 14, exchangeElems: 1 << 12, exchangeChunk: 4,
			kfacIters: 3, sgdIters: 6, serveCap: 1 << 11, desRanks: 256, desSteps: 2,
			task: tinyTask, eigenN: 16,
		}
	}
	return sizes{
		codecElems: 1 << 20, exchangeElems: 1 << 18, exchangeChunk: 16,
		kfacIters: 20, sgdIters: 200, serveCap: 1 << 18, desRanks: 4096, desSteps: 10,
		task: proxyResNet, eigenN: 128, setupBudget: 1500 * time.Millisecond,
	}
}

// checkEvery is how often a timed op's output is verified; every warm-up op
// is verified.
const checkEvery = 16

// corrupt is the self-test's fault hook: naming a check site here damages
// the value that check reads (one decompressed element, one DES statistic,
// one loss), so the test can see the check fail. Nothing else sets it.
var corrupt string

const (
	corruptDecoded = "decoded" // codec_4mb, exchange_p8, serve_mix
	corruptLoss    = "loss"    // train_*
	corruptDES     = "des"     // des_p4096
)

// restored checks one decompressed tensor against its source: same length
// and every element within the compressor's advertised bound. The empty
// string means it passed.
func restored(x, xhat []float32, bound float64) string {
	if corrupt == corruptDecoded && len(xhat) > 0 {
		xhat[len(xhat)/2] += float32(4 * bound)
	}
	if len(xhat) != len(x) {
		return fmt.Sprintf("restored %d elements, want %d", len(xhat), len(x))
	}
	// Same float slack the compress package's own tests allow.
	limit := bound + 1e-7
	for i := range x {
		if e := math.Abs(float64(x[i] - xhat[i])); !(e <= limit) {
			return fmt.Sprintf("element %d off by %g, bound %g", i, e, bound)
		}
	}
	return ""
}

// newCOMPSO builds the registry's compso compressor and returns its
// advertised error bound with it.
func newCOMPSO(seed int64) (compress.Compressor, float64, error) {
	c, err := compress.ByName("compso", compress.Options{Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	cc, ok := c.(*compress.COMPSO)
	if !ok {
		return nil, 0, fmt.Errorf("registry compso is %T, want *compress.COMPSO", c)
	}
	return c, cc.MaxError(), nil
}

// kfacTensors generates n K-FAC-distributed tensors whose scales spread
// geometrically over [lo, hi].
func kfacTensors(rng *rand.Rand, n, elems int, lo, hi float64) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		scale := lo
		if n > 1 {
			scale = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
		}
		out[i] = make([]float32, elems)
		xrand.KFACGradient(rng, out[i], scale)
	}
	return out
}

// ---------------------------------------------------------------- codec_4mb

// codecTensors is odd, so the median op is an op on the middle tensor
// (scale 1) and does not fall between the times of two scales.
const codecTensors = 9

type codecInst struct {
	comp    compress.Compressor
	bound   float64
	tensors [][]float32
	ops     int64
}

func setupCodec(p params, warm *meter) (instance, error) {
	sz := sizesFor(p.small)
	comp, bound, err := newCOMPSO(p.seed)
	if err != nil {
		return nil, err
	}
	c := &codecInst{
		comp: comp, bound: bound,
		tensors: kfacTensors(xrand.NewSeeded(p.seed), codecTensors, sz.codecElems, 0.25, 4),
	}
	for _, x := range c.tensors {
		c.one(x, warm, nil, true)
	}
	return c, nil
}

func (c *codecInst) one(x []float32, m *meter, t *track, check bool) {
	c.ops++
	t.begin(opSpan, c.ops)
	start := time.Now()
	t.begin("compress.Compress", c.ops)
	blob, err := c.comp.Compress(x)
	t.end()
	var xhat []float32
	if err == nil {
		t.begin("compress.Decompress", c.ops)
		xhat, err = c.comp.Decompress(blob)
		t.end()
	}
	d := time.Since(start)
	t.end()
	m.op(d)
	m.bytes(4*len(x), len(blob))
	if err != nil {
		m.fail("codec_4mb: %v", err)
	} else if check {
		if msg := restored(x, xhat, c.bound); msg != "" {
			m.fail("codec_4mb: %s", msg)
		}
	}
}

// run cycles the nine tensors; a round is one pass, so every run compresses
// each scale equally often.
func (c *codecInst) run(tr *tracer, done func() bool) *meter {
	m, t := &meter{}, tr.track(0)
	for {
		for _, x := range c.tensors {
			c.one(x, m, t, c.ops%checkEvery == 0)
		}
		m.crFrozen = true
		if done() {
			return m
		}
	}
}

// -------------------------------------------------------------- exchange_p8

const exchangeRanks = 8

type exchangeInst struct {
	cl      *cluster.Cluster
	comps   []compress.Compressor // one per rank
	bound   float64
	tensors [][]float32 // tensors[r] is rank r's gradient
	chunk   int
	steps   int64
}

func setupExchange(p params, warm *meter) (instance, error) {
	sz := sizesFor(p.small)
	e := &exchangeInst{
		cl:      cluster.New(cluster.Platform1(), exchangeRanks),
		tensors: kfacTensors(xrand.NewSeeded(p.seed), exchangeRanks, sz.exchangeElems, 0.5, 2),
		chunk:   sz.exchangeChunk,
	}
	for r := 0; r < exchangeRanks; r++ {
		comp, bound, err := newCOMPSO(p.seed*exchangeRanks + int64(r))
		if err != nil {
			return nil, err
		}
		e.comps = append(e.comps, comp)
		e.bound = bound
	}
	e.runChunk(warm, nil, 2, true)
	return e, nil
}

// runChunk runs steps exchange steps inside one cluster.Run. Rank 0 times
// each step. Outputs are verified after the last step, so no timed step
// waits for a rank that is still checking: the last step's outputs always,
// every step's when checkAll is set.
func (e *exchangeInst) runChunk(m *meter, t *track, steps int, checkAll bool) {
	type verdict struct {
		msg  string
		hash uint64
	}
	verdicts := make([][]verdict, exchangeRanks) // [rank][checked step]
	failures := make([]string, exchangeRanks)    // each rank's first error
	base := e.steps
	e.steps += int64(steps)
	workers := e.cl.Run(func(w *cluster.Worker) {
		r := w.Rank()
		var rt *track // only rank 0 records spans
		if r == 0 {
			rt = t
		}
		comp := e.comps[r]
		var kept [][][]float32 // decoded tensors of the steps to verify
		for s := 0; s < steps; s++ {
			id := base + int64(s) + 1
			rt.begin(opSpan, id)
			start := time.Now()
			rt.begin("compress.Compress", id)
			blob, err := comp.Compress(e.tensors[r])
			rt.end()
			if err != nil && failures[r] == "" {
				failures[r] = fmt.Sprintf("rank %d step %d: compress: %v", r, id, err)
			}
			rt.begin("cluster.AllGather", id)
			parts := w.AllGather(blob, "exchange")
			rt.end()
			decoded := make([][]float32, len(parts))
			for i, part := range parts {
				rt.begin("compress.Decompress", id)
				decoded[i], err = comp.Decompress(part)
				rt.end()
				if err != nil && failures[r] == "" {
					failures[r] = fmt.Sprintf("rank %d step %d: decompress blob of rank %d: %v", r, id, i, err)
				}
			}
			d := time.Since(start)
			rt.end()
			if r == 0 {
				m.op(d)
				for i, part := range parts {
					m.bytes(4*len(e.tensors[i]), len(part))
				}
			}
			if checkAll || s == steps-1 {
				kept = append(kept, decoded)
			}
		}
		// Rank 0 holds its outputs against the inputs; the others prove
		// they decoded the same bits as rank 0, by an FNV-1a hash over words.
		for _, decoded := range kept {
			v := verdict{hash: 14695981039346656037}
			for i, xhat := range decoded {
				if r == 0 && v.msg == "" {
					if msg := restored(e.tensors[i], xhat, e.bound); msg != "" {
						v.msg = fmt.Sprintf("tensor of rank %d: %s", i, msg)
					}
				}
				for _, f := range xhat {
					v.hash = (v.hash ^ uint64(math.Float32bits(f))) * 1099511628211
				}
			}
			verdicts[r] = append(verdicts[r], v)
		}
	})
	m.simMs += workers[0].Time() * 1e3
	for _, f := range failures {
		if f != "" {
			m.fail("exchange_p8: %s", f)
			break
		}
	}
	for k := range verdicts[0] {
		for r := 0; r < exchangeRanks; r++ {
			if v := verdicts[r][k]; v.msg != "" {
				m.fail("exchange_p8: %s", v.msg)
				break
			} else if v.hash != verdicts[0][k].hash {
				m.fail("exchange_p8: rank %d decoded other values than rank 0", r)
				break
			}
		}
	}
}

func (e *exchangeInst) run(tr *tracer, done func() bool) *meter {
	m, t := &meter{}, tr.track(0)
	for {
		e.runChunk(m, t, e.chunk, false)
		m.crFrozen = true
		if done() {
			return m
		}
	}
}

// ------------------------------------------------------------------ train_*

type trainInst struct {
	name string
	cfg  train.Config
	ref  []float64 // losses of the first run; every later run must repeat them
	ops  int64
}

func proxyResNet(rng *rand.Rand) *modelzoo.ProxyTask { return modelzoo.ProxyResNet(rng, 7) }

// tinyTask is the self-test's stand-in for the proxy: two dense layers whose
// K-FAC factors are at most 17x17, so a run costs milliseconds.
func tinyTask(rng *rand.Rand) *modelzoo.ProxyTask {
	const classes, side = 4, 4
	return &modelzoo.ProxyTask{
		Name:  "tiny",
		Model: nn.NewSequential(nn.NewDense(side*side, 8, rng), nn.NewReLU(), nn.NewDense(8, classes, rng)),
		Data:  dataset.NewImageClassification(classes, 1, side, side, 0.8, 7),
		Loss:  nn.SoftmaxCrossEntropy{}, Batch: 8,
		BaseLR: 0.03, KFACLR: 0.03, Classes: classes,
	}
}

// trainTaskSeed fixes the training task (model init and every worker's data
// order) for all runs: host time per step depends on the task, through the
// number of Jacobi sweeps the factors need, and so does the ratio compso
// reaches on the proxy's small layers. The run's seed draws what the
// compressors add: their stochastic-rounding and query-init streams.
const trainTaskSeed = 123

// trainBase is what both train workloads share: task, world, platform,
// schedule.
func trainBase(sz sizes, iters int) train.Config {
	return train.Config{
		BuildTask: sz.task,
		Workers:   4,
		Platform:  cluster.Platform1(),
		Iters:     iters,
		Seed:      trainTaskSeed,
		Schedule:  &opt.StepLR{BaseLR: 0.03, Gamma: 0.1},
	}
}

// kfacOverlapConfig is train_kfac_overlap's configuration: K-FAC with a
// per-rank compso compressor on the overlap scheduler.
func kfacOverlapConfig(seed int64, sz sizes, iters int) train.Config {
	cfg := trainBase(sz, iters)
	cfg.UseKFAC = true
	cfg.KFAC = kfac.DefaultConfig()
	cfg.AggregationM = 4
	cfg.Overlap = true
	cfg.NewCompressor = func(rank int) compress.Compressor {
		c, _, err := newCOMPSO(seed*64 + int64(rank))
		if err != nil {
			panic(err) // the registry name is a constant of this file
		}
		return c
	}
	return cfg
}

// sgdLowRankConfig is train_sgd_lowrank's configuration: momentum SGD whose
// gradient goes through rank-4 PowerSGD with error feedback on the ring
// all-reduce path. Every rank shares one seed, as that path requires.
func sgdLowRankConfig(seed int64, sz sizes, iters int) train.Config {
	cfg := trainBase(sz, iters)
	cfg.NewCompressor = func(int) compress.Compressor {
		c, err := compress.ByName("powersgd", compress.Options{Rank: 4, Seed: seed, ErrorFeedback: true})
		if err != nil {
			panic(err)
		}
		return c
	}
	return cfg
}

func setupTrainKFAC(p params, warm *meter) (instance, error) {
	sz := sizesFor(p.small)
	return setupTrain("train_kfac_overlap", kfacOverlapConfig(p.seed, sz, sz.kfacIters), warm)
}

func setupTrainSGD(p params, warm *meter) (instance, error) {
	sz := sizesFor(p.small)
	return setupTrain("train_sgd_lowrank", sgdLowRankConfig(p.seed, sz, sz.sgdIters), warm)
}

// setupTrain warms up with a two-step run of the same configuration, which
// fills the pools and pays first-use costs without a whole op's time.
func setupTrain(name string, cfg train.Config, warm *meter) (instance, error) {
	short := cfg
	short.Iters = 2
	(&trainInst{name: name, cfg: short}).one(warm, nil)
	return &trainInst{name: name, cfg: cfg}, nil
}

// commMs is the simulated communication time of a run, summed over the
// categories in name order so that the float sum repeats bit for bit.
func commMs(res *train.Result) float64 {
	names := make([]string, 0, len(res.CommSeconds))
	for name := range res.CommSeconds {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0.0
	for _, name := range names {
		total += res.CommSeconds[name] * 1e3
	}
	return total
}

func (ti *trainInst) one(m *meter, t *track) {
	ti.ops++
	t.begin(opSpan, ti.ops)
	start := time.Now()
	t.begin("train.Run", ti.ops)
	res, err := train.Run(ti.cfg)
	t.end()
	d := time.Since(start)
	t.end()
	m.op(d)
	if err != nil {
		m.fail("%s: %v", ti.name, err)
		return
	}
	m.cr = res.MeanCR
	m.simMs += commMs(res)
	losses := append(append([]float64(nil), res.Losses...), res.FinalLoss)
	if corrupt == corruptLoss {
		losses[0] = math.NaN()
	}
	if ti.ref == nil {
		ti.ref = losses
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			m.fail("%s: loss %d is %v", ti.name, i, l)
			return
		}
		if len(losses) != len(ti.ref) || l != ti.ref[i] {
			m.fail("%s: run %d did not repeat the first run's losses", ti.name, ti.ops)
			return
		}
	}
}

func (ti *trainInst) run(tr *tracer, done func() bool) *meter {
	m, t := &meter{}, tr.track(0)
	for {
		ti.one(m, t)
		if done() {
			return m
		}
	}
}

// ---------------------------------------------------------------- serve_mix

const serveClients = 2

// recorder is the in-process http.ResponseWriter: no TCP, so the kernel's
// network stack is not part of what is measured. Its buffer is reused.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}
func (r *recorder) reset() {
	clear(r.header)
	r.body.Reset()
	r.code = 0
}

// serveClient is one closed-loop caller: its own tenant and session, its
// own tensors, one request in flight at a time.
type serveClient struct {
	h     http.Handler
	id    int
	base  string // "/v1/sessions/<id>"
	bound float64
	// bodies are the client's gradients as request bodies (little-endian
	// float32); the checks decode them again, so no second copy is kept.
	bodies [][]byte
	rw     recorder
	blob   []byte
	ops    int64
	// twin is the direct-library compressor with the session's seed; while
	// it is fed the same calls in the same order its blobs must equal the
	// session's. Only the warm-up pass keeps it in step.
	twin compress.Compressor
}

type serveInst struct {
	srv     *serve.Server
	clients []*serveClient
}

// serveTensors is one client's request mix: one gradient per ResNet-50
// layer, capped at maxElems. The sizes come from the model (4 160 elements
// up to the cap, most at the cap) and are the same for every seed; the seed
// only draws the values.
func serveTensors(rng *rand.Rand, maxElems int) [][]float32 {
	prof := modelzoo.ResNet50()
	out := make([][]float32, len(prof.Layers))
	for l := range prof.Layers {
		out[l] = prof.SyntheticGradient(rng, l, maxElems)
	}
	return out
}

func f32Bytes(x []float32) []byte {
	b := make([]byte, 4*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func bytesF32(b []byte) []float32 {
	x := make([]float32, len(b)/4)
	for i := range x {
		x[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return x
}

// newServeClient creates client id's session over HTTP and generates its
// tensors.
func newServeClient(h http.Handler, id int, seed int64, maxElems int) (*serveClient, error) {
	sessSeed := seed*serveClients + int64(id)
	c := &serveClient{h: h, id: id, rw: recorder{header: http.Header{}}}
	cfg, err := json.Marshal(serve.SessionConfig{Tenant: fmt.Sprintf("tenant-%d", id), Seed: sessSeed})
	if err != nil {
		return nil, err
	}
	code := c.post("/v1/sessions", cfg)
	var info serve.SessionInfo
	if err := json.Unmarshal(c.rw.body.Bytes(), &info); err != nil || code != http.StatusCreated {
		return nil, fmt.Errorf("serve_mix: create session: status %d, %v", code, err)
	}
	c.base = "/v1/sessions/" + info.ID
	if c.twin, c.bound, err = newCOMPSO(sessSeed); err != nil {
		return nil, err
	}
	for _, x := range serveTensors(xrand.NewSeeded(sessSeed), maxElems) {
		c.bodies = append(c.bodies, f32Bytes(x))
	}
	return c, nil
}

// post sends one request through the handler and returns the status; the
// response body stays in c.rw until the next call.
func (c *serveClient) post(path string, body []byte) int {
	c.rw.reset()
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	c.h.ServeHTTP(&c.rw, req)
	return c.rw.code
}

// request is one timed op: a single HTTP request.
func (c *serveClient) request(m *meter, t *track, path string, body []byte) bool {
	c.ops++
	t.begin(opSpan, c.ops)
	start := time.Now()
	t.begin("serve.ServeHTTP", c.ops)
	code := c.post(path, body)
	t.end()
	d := time.Since(start)
	t.end()
	m.op(d)
	if code != http.StatusOK {
		if code == http.StatusTooManyRequests {
			m.shed++
		}
		m.fail("serve_mix: client %d %s: status %d", c.id, path, code)
		return false
	}
	return true
}

// roundTrip is two ops: compress tensor i, then decompress the blob that
// came back. withTwin additionally holds the blob against the library's.
func (c *serveClient) roundTrip(i int, m *meter, t *track, check, withTwin bool) {
	if !c.request(m, t, c.base+"/compress", c.bodies[i]) {
		return
	}
	c.blob = append(c.blob[:0], c.rw.body.Bytes()...)
	m.bytes(len(c.bodies[i]), len(c.blob))
	if withTwin {
		if want, err := c.twin.Compress(bytesF32(c.bodies[i])); err != nil || !bytes.Equal(want, c.blob) {
			m.fail("serve_mix: client %d tensor %d: served blob differs from the library's (%v)", c.id, i, err)
		}
	}
	if !c.request(m, t, c.base+"/decompress", c.blob) {
		return
	}
	if check {
		if msg := restored(bytesF32(c.bodies[i]), bytesF32(c.rw.body.Bytes()), c.bound); msg != "" {
			m.fail("serve_mix: client %d tensor %d: %s", c.id, i, msg)
		}
	}
}

func setupServe(p params, warm *meter) (instance, error) {
	srv := serve.New(serve.Config{})
	s := &serveInst{srv: srv}
	for id := 0; id < serveClients; id++ {
		c, err := newServeClient(srv.Handler(), id, p.seed, sizesFor(p.small).serveCap)
		if err != nil {
			return nil, err
		}
		for i := range c.bodies {
			c.roundTrip(i, warm, nil, true, true)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// run is the closed loop: every client sends its next request when the
// previous one has returned. A round is one pass over the client's tensors,
// so the size mix of a run does not depend on where it stopped.
func (s *serveInst) run(tr *tracer, done func() bool) *meter {
	meters := make([]*meter, len(s.clients))
	var wg sync.WaitGroup
	for k, c := range s.clients {
		meters[k] = &meter{}
		wg.Add(1)
		go func(c *serveClient, m *meter, t *track) {
			defer wg.Done()
			for {
				for i := range c.bodies {
					// c.ops counts requests, two per round trip.
					c.roundTrip(i, m, t, (c.ops/2)%checkEvery == 0, false)
				}
				m.crFrozen = true
				if done() {
					return
				}
			}
		}(c, meters[k], tr.track(c.id))
	}
	wg.Wait()
	total := &meter{}
	for _, m := range meters {
		total.merge(m)
	}
	return total
}

// ---------------------------------------------------------------- des_p4096

// desStats is what every replay of one program must reproduce.
type desStats struct {
	maxTime     float64
	wireBytes   int64
	collectives int64
}

type desInst struct {
	cfg   cluster.Config
	ranks int
	steps int
	prog  des.Program
	info  train.CommSimInfo
	ref   *desStats
	world *des.World // the last replay's world, kept so live_heap_mb sees it
	ops   int64
}

// desProgram builds the K-FAC + compso communication program the des
// workload and probes replay.
func desProgram(seed int64, steps, ranks int) (des.Program, train.CommSimInfo, error) {
	return train.BuildCommProgram(train.CommSimConfig{
		Model: "ResNet-50", Compressor: "compso", KFAC: true, Steps: steps, Seed: seed,
	}, ranks)
}

func newDES(seed int64, steps, ranks int) (*desInst, error) {
	cfg := cluster.Platform1()
	cfg.Collective = "hierarchical"
	prog, info, err := desProgram(seed, steps, ranks)
	if err != nil {
		return nil, err
	}
	return &desInst{cfg: cfg, ranks: ranks, steps: steps, prog: prog, info: info}, nil
}

func setupDES(p params, warm *meter) (instance, error) {
	sz := sizesFor(p.small)
	d, err := newDES(p.seed, sz.desSteps, sz.desRanks)
	if err != nil {
		return nil, err
	}
	d.one(warm, nil)
	return d, nil
}

func (d *desInst) one(m *meter, t *track) {
	if d.world != nil {
		d.world.Release()
	}
	d.ops++
	t.begin(opSpan, d.ops)
	start := time.Now()
	t.begin("des.NewWorld", d.ops)
	w := des.NewWorld(d.cfg, d.ranks)
	t.end()
	t.begin("des.RunOnWorld", d.ops)
	des.RunOnWorld(w, d.prog)
	t.end()
	dur := time.Since(start)
	t.end()
	d.world = w
	m.op(dur)
	m.cr = d.info.Ratio
	m.simMs += w.MaxTime() * 1e3
	got := desStats{maxTime: w.MaxTime(), wireBytes: w.WireBytes(), collectives: w.Collectives()}
	if corrupt == corruptDES && d.ref != nil {
		got.collectives++
	}
	if d.ref == nil {
		d.ref = &got
	}
	if got != *d.ref || got.maxTime <= 0 || got.collectives <= 0 {
		m.fail("des_p4096: replay %d gave %+v, the first gave %+v", d.ops, got, *d.ref)
	}
}

func (d *desInst) run(tr *tracer, done func() bool) *meter {
	m, t := &meter{}, tr.track(0)
	for {
		d.one(m, t)
		if done() {
			return m
		}
	}
}

// workloads lists the six in BENCHMARK.json's order.
var workloads = []workload{
	{"codec_4mb", setupCodec},
	{"exchange_p8", setupExchange},
	{"train_kfac_overlap", setupTrainKFAC},
	{"train_sgd_lowrank", setupTrainSGD},
	{"serve_mix", setupServe},
	{"des_p4096", setupDES},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
