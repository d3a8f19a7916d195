package nn_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"compso/internal/dataset"
	"compso/internal/modelzoo"
	"compso/internal/nn"
	"compso/internal/xrand"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/proxy_fingerprint_v1.json from this build")

// fingerprintTasks is every modelzoo proxy plus two stacks that carry the
// layer kinds no proxy builds: a pre-LN TransformerBlock (whose residuals
// land in its sub-layers' outputs), and MaxPool2D, Tanh, Embedding and
// LayerNorm.
func fingerprintTasks() []*modelzoo.ProxyTask {
	squad, _ := modelzoo.ProxySQuAD(xrand.NewSeeded(5), 5)
	rng := xrand.NewSeeded(6)
	const vocab, seq, dim = 24, 12, 16
	transformer := &modelzoo.ProxyTask{
		Name: "transformer-block",
		Model: nn.NewSequential(
			nn.NewEmbeddingSeq(vocab, dim, seq, rng),
			nn.NewTransformerBlock(seq, dim, 2, 32, rng),
			nn.NewMeanPool(seq, dim),
			nn.NewDense(dim, 4, rng),
		),
		Data: dataset.NewTextClassification(4, vocab, seq, 7),
		Loss: nn.SoftmaxCrossEntropy{}, Batch: 16, BaseLR: 0.05,
	}
	conv := nn.NewConv2D(1, 10, 10, 6, 3, rng)
	pool := nn.NewMaxPool2D(6, conv.OH, conv.OW, 2)
	cnn := &modelzoo.ProxyTask{
		Name: "conv-tanh-maxpool",
		Model: nn.NewSequential(conv, nn.NewTanh(), pool,
			nn.NewDense(pool.OutFeatures(), 10, rng)),
		Data: dataset.NewImageClassification(10, 1, 10, 10, 0.8, 8),
		Loss: nn.SoftmaxCrossEntropy{}, Batch: 32, BaseLR: 0.03,
	}
	bag := &modelzoo.ProxyTask{
		Name: "embedding-layernorm",
		Model: nn.NewSequential(
			nn.NewEmbedding(vocab, dim, seq, rng),
			nn.NewLayerNorm(dim),
			nn.NewDense(dim, 4, rng),
		),
		Data: dataset.NewTextClassification(4, vocab, seq, 9),
		Loss: nn.SoftmaxCrossEntropy{}, Batch: 32, BaseLR: 0.05,
	}
	return []*modelzoo.ProxyTask{
		modelzoo.ProxyResNet(xrand.NewSeeded(1), 1),
		modelzoo.ProxyMaskRCNN(xrand.NewSeeded(2), 2),
		modelzoo.ProxyBERT(xrand.NewSeeded(3), 3),
		modelzoo.ProxyGPT(xrand.NewSeeded(4), 4),
		squad, transformer, cnn, bag,
	}
}

// trainingFingerprint runs three plain-SGD steps and hashes each step's
// loss and the bits of every parameter gradient.
func trainingFingerprint(task *modelzoo.ProxyTask) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	rng := xrand.NewSeeded(11)
	for range 3 {
		x, y := task.Data.Sample(rng, task.Batch)
		loss, grad := task.Loss.Loss(task.Model.Forward(x, true), y)
		task.Model.ZeroGrad()
		task.Model.Backward(grad)
		put(loss)
		for _, p := range task.Model.Params() {
			for _, g := range p.Grad.Data {
				put(g)
			}
			p.W.AXPY(-task.BaseLR, p.Grad)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Every proxy's training step is pinned bit for bit: losses and parameter
// gradients of three SGD steps, against a golden recorded before the
// layers' storage was last reworked.
func TestProxyTrainingFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits are recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	got := map[string]string{}
	for _, task := range fingerprintTasks() {
		got[task.Name] = trainingFingerprint(task)
	}
	path := filepath.Join("testdata", "proxy_fingerprint_v1.json")
	if *updateFingerprint {
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
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d tasks, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: missing", name)
		} else if g != w {
			t.Errorf("%s: fingerprint %s, golden %s", name, g, w)
		}
	}
}
