// Package compso is the public facade of the COMPSO reproduction: gradient
// compression for distributed training with second-order (K-FAC)
// optimizers, after Sun et al., PPoPP '25.
//
// The heart of the library is the COMPSO compressor — an error-bounded
// filter + stochastic-rounding quantizer + lossless encoder pipeline for
// K-FAC preconditioned gradients — together with the adaptive machinery
// around it: the iteration-wise error-bound controller that follows the
// learning-rate schedule, the layer-wise aggregation driven by a
// performance model, and a simulated multi-GPU cluster for end-to-end
// distributed K-FAC training.
//
// Quick start:
//
//	c := compso.New(compso.WithSeed(1234)) // COMPSO with default bounds + ANS
//	blob, err := c.Compress(gradient)
//	...
//	restored, err := c.Decompress(blob)
//
// For distributed training, see Train and the examples/ directory; for
// regenerating the paper's tables and figures, see cmd/compso-bench.
package compso

import (
	"io"
	"math/rand/v2"

	"compso/internal/ckpt"
	"compso/internal/cluster"
	"compso/internal/compress"
	internalcompso "compso/internal/compso"
	"compso/internal/encoding"
	"compso/internal/fault"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/nn"
	"compso/internal/opt"
	"compso/internal/perfmodel"
	"compso/internal/train"
)

// Compressor lossily compresses float32 gradient vectors. All compressors
// in this package produce self-describing buffers and validate their input
// on decompression.
type Compressor = compress.Compressor

// COMPSO is the paper's compressor with tunable filter/quantizer error
// bounds and a pluggable lossless back-end codec.
type COMPSO = compress.COMPSO

// Codec is a lossless back-end encoder (see Codecs for the Table 2 set).
type Codec = encoding.Codec

// Controller is the iteration-wise adaptive error-bound schedule
// (Algorithm 1 of the paper).
type Controller = internalcompso.Controller

// Strategy is one iteration's compression setting.
type Strategy = internalcompso.Strategy

// Platform describes a simulated cluster interconnect.
type Platform = cluster.Config

// Schedule is a learning-rate schedule (StepLR or SmoothLR).
type Schedule = opt.Schedule

// StepLR decays the learning rate at fixed iterations.
type StepLR = opt.StepLR

// SmoothLR is warmup plus cosine decay.
type SmoothLR = opt.SmoothLR

// TrainConfig configures a distributed training run on the simulated
// cluster.
type TrainConfig = train.Config

// TrainResult is a training run's log.
type TrainResult = train.Result

// KFACConfig holds the K-FAC optimizer hyper-parameters.
type KFACConfig = kfac.Config

// ProxyTask couples a trainable proxy model with its dataset and loss.
type ProxyTask = modelzoo.ProxyTask

// ModelProfile describes one of the paper's evaluation models (layer
// shapes, gradient sizes, compute model).
type ModelProfile = modelzoo.Profile

// LookupTable is the performance model's offline communication-throughput
// table (§4.4).
type LookupTable = perfmodel.LookupTable

// OnlineProfile is the performance model's warmup measurement input.
type OnlineProfile = perfmodel.OnlineProfile

// Stateful is the optional contract for compressors carrying per-stream
// state (error-feedback residuals, PowerSGD's warm-started factors).
// Holders of a long-lived Compressor should type-assert for Stateful and
// Reset between logical streams.
type Stateful = compress.Stateful

// ErrorFeedback is the shared error-feedback wrapper built by
// WithErrorFeedback (or NewErrorFeedback): it carries the compression
// residual across steps and adds it back before each Compress. It
// implements Stateful; type-assert a registry-built Compressor to reach
// ResidualNorm or Reset.
type ErrorFeedback = compress.ErrorFeedback

// PowerSGD is the low-rank compressor family: rank-k P/Q power iteration
// with warm-started queries and ACP-SGD's alternating factor exchange,
// whose aggregation is a ring all-reduce instead of a blob all-gather.
type PowerSGD = compress.PowerSGD

// NewPowerSGD returns a rank-k low-rank compressor with warm-started
// queries and a near-square gradient reshape; equivalent to
// NewCompressorFor("powersgd", WithRank(rank), WithSeed(seed)).
func NewPowerSGD(rank int, seed int64) *PowerSGD { return compress.NewPowerSGD(rank, seed) }

// Families returns the registered compressor family names in canonical
// order ("compso", "qsgd", "sz", "cocktail", "powersgd"), mirroring the
// Codecs/Models/Platforms registry pattern. Build one with
// NewCompressorFor.
func Families() []string { return compress.Families() }

// NewController returns the paper's default iteration-wise adaptive
// controller for the given schedule and iteration budget.
func NewController(schedule Schedule, totalIters int) *Controller {
	return internalcompso.DefaultController(schedule, totalIters)
}

// LayerPlan is a per-layer compressor-family assignment for a model
// profile (see PlanFamilies).
type LayerPlan = internalcompso.LayerPlan

// FamilyChoice is one layer's entry in a LayerPlan.
type FamilyChoice = internalcompso.FamilyChoice

// PlanFamilies chooses a compressor family per profile layer: PowerSGD
// rank-k for large 2D layers whose factor exchange clearly beats the
// COMPSO baseline, COMPSO elsewhere. rank ≤ 0 and minParams ≤ 0 select
// the defaults (4 and 1<<16). Use LayerPlan.Compressors with
// TrainConfig.NewLayerCompressor to apply the plan to a training run.
func PlanFamilies(profile ModelProfile, rank, minParams int) LayerPlan {
	return internalcompso.PlanFamilies(profile, rank, minParams)
}

// Sentinel errors for the facade's lookup and decode paths. Match them
// with errors.Is; the wrapped messages carry the offending name and the
// known alternatives.
var (
	// ErrUnknownCodec is wrapped by CodecByName for unregistered encoder
	// names.
	ErrUnknownCodec = encoding.ErrUnknownCodec
	// ErrUnknownModel is wrapped by ModelByName for unregistered
	// evaluation profiles.
	ErrUnknownModel = modelzoo.ErrUnknownModel
	// ErrUnknownPlatform is wrapped by PlatformByName for unregistered
	// platforms.
	ErrUnknownPlatform = cluster.ErrUnknownPlatform
	// ErrCorruptBlob is wrapped by every Decompress implementation on
	// malformed input.
	ErrCorruptBlob = compress.ErrCorrupt
	// ErrUnknownFamily is wrapped by NewCompressorFor for unregistered
	// compressor family names.
	ErrUnknownFamily = compress.ErrUnknownFamily
)

// Codecs returns the Table 2 lossless encoder set (ANS, Bitcomp, Cascaded,
// Deflate, Gdeflate, LZ4, Snappy, Zstd).
func Codecs() []Codec { return encoding.All() }

// CodecByName looks up a lossless encoder by its registry name, matched
// case-insensitively.
func CodecByName(name string) (Codec, error) { return encoding.ByName(name) }

// Platforms returns the registered platform names ("slingshot10",
// "slingshot11") for PlatformByName, mirroring the Codecs/Models registry
// pattern.
func Platforms() []string { return cluster.Platforms() }

// PlatformByName looks up an evaluation platform by registry name:
// "slingshot10" is the paper's Platform 1 (100 Gbps per node) and
// "slingshot11" its Platform 2 (200 Gbps). Unknown names return an error
// wrapping ErrUnknownPlatform.
func PlatformByName(name string) (Platform, error) { return cluster.PlatformByName(name) }

// DefaultKFAC returns the K-FAC configuration used across the experiments.
func DefaultKFAC() KFACConfig { return kfac.DefaultConfig() }

// Train runs a distributed (simulated) training job and returns rank 0's
// log.
func Train(cfg TrainConfig) (*TrainResult, error) { return train.Run(cfg) }

// FaultPlan declares a deterministic fault scenario for a training run:
// straggler compute slowdowns, degraded/flaky links, and in-flight payload
// corruption. Set it as TrainConfig.Fault; the
// same seed and plan always reproduce the same run bit-for-bit.
type FaultPlan = fault.Plan

// Straggler slows one rank's compute by a multiplicative factor over a
// step window (persistent when the window is open-ended).
type Straggler = fault.Straggler

// LinkFault inflates the α/β cost of matching fabric links and optionally
// adds bounded per-message jitter.
type LinkFault = fault.LinkFault

// Corruption flips bits in compressed payloads at a per-delivery rate; the
// training loop recovers via bounded retry then lossless fallback.
type Corruption = fault.Corruption

// FaultGuard configures the straggler-aware collective guard: when the
// measured schedule time diverges from the engine's fault-free prediction
// by more than Ratio for Patience consecutive steps, the autotuner's
// measured state is reset so algorithm picks re-learn under the degraded
// fabric.
type FaultGuard = fault.Guard

// CheckpointConfig enables periodic checkpointing and crash recovery for a
// training run (TrainConfig.Checkpoint): every Interval completed steps the
// complete training state — model, optimizer, compressor streams, RNG
// positions, log and wire counters — is captured in a versioned,
// CRC-guarded checkpoint, and a worker loss rolls every rank back to the
// last one and resumes bit-identically to an uninterrupted run.
type CheckpointConfig = train.CheckpointConfig

// WorkerCrash declares a deterministic worker crash in a FaultPlan
// (FaultPlan.Crashes): the rank dies at the configured step and point, the
// survivors detect the loss at their next collective, and the run recovers
// through the checkpoint configuration.
type WorkerCrash = fault.WorkerCrash

// CrashPoint selects where within a training step a WorkerCrash fires.
type CrashPoint = fault.CrashPoint

// The three crash points: at the top of the step, after backward but
// before the gradient exchange, and on entry to one of the step's
// collectives (the hardest detection case).
const (
	CrashAtStepStart   = fault.CrashAtStepStart
	CrashMidStep       = fault.CrashMidStep
	CrashMidCollective = fault.CrashMidCollective
)

// LatestCheckpoint returns the path of the newest complete checkpoint in a
// CheckpointConfig.Dir directory, or "" when it holds none — torn in-progress
// writes are never selected.
func LatestCheckpoint(dir string) (string, error) { return ckpt.LatestPath(dir) }

// Models returns the paper's four evaluation model profiles.
func Models() []ModelProfile { return modelzoo.All() }

// ModelByName looks up an evaluation model profile.
func ModelByName(name string) (ModelProfile, error) { return modelzoo.ByName(name) }

// Proxy builders for the trainable stand-ins used by the convergence
// experiments.
var (
	ProxyResNet   = modelzoo.ProxyResNet
	ProxyMaskRCNN = modelzoo.ProxyMaskRCNN
	ProxyBERT     = modelzoo.ProxyBERT
	ProxyGPT      = modelzoo.ProxyGPT
	ProxySQuAD    = modelzoo.ProxySQuAD
)

// BuildLookupTable benchmarks a platform's all-gather offline and returns
// the performance model's throughput table (§4.4).
func BuildLookupTable(p Platform, gpuCounts []int) (*LookupTable, error) {
	return perfmodel.BuildLookupTable(p, gpuCounts)
}

// EndToEndSpeedup projects the iteration speedup from a communication
// speedup s at communication fraction r: ((1−r) + r/s)⁻¹.
func EndToEndSpeedup(r, s float64) float64 { return perfmodel.EndToEnd(r, s) }

// Ratio returns the compression ratio for n float32 values compressed into
// the given buffer.
func Ratio(n int, compressed []byte) float64 { return compress.Ratio(n, compressed) }

// NewRand returns the deterministic RNG used across the library, for
// callers building proxy tasks.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15+1))
}

// TuneResult is the outcome of the automatic error-bound search.
type TuneResult = internalcompso.TuneResult

// TuneBounds implements the paper's future-work bound optimization: it
// finds the largest error bound whose compressed round trip keeps the
// gradient-direction cosine at or above target. lo and hi bracket the
// search.
func TuneBounds(sample []float32, targetCosine, lo, hi float64, seed int64) (TuneResult, error) {
	return internalcompso.TuneBounds(sample, targetCosine, lo, hi, seed)
}

// CosineSimilarity returns the cosine between two gradients — the fidelity
// metric the tuner optimizes.
func CosineSimilarity(a, b []float32) float64 { return internalcompso.CosineSimilarity(a, b) }

// NewErrorFeedback wraps a compressor with the error-feedback mechanism
// (the residual-carrying alternative discussed in §6 of the paper, which
// COMPSO itself avoids to save gradient-sized memory).
func NewErrorFeedback(inner Compressor) *compress.ErrorFeedback {
	return compress.NewErrorFeedback(inner)
}

// SaveModel serializes a model's parameters to w; LoadModel restores them
// into an identically constructed model.
func SaveModel(model *nn.Sequential, w io.Writer) error { return nn.Save(model, w) }

// LoadModel restores parameters saved by SaveModel.
func LoadModel(model *nn.Sequential, r io.Reader) error { return nn.Load(model, r) }

// NewShampoo returns the Shampoo second-order optimizer over the model's
// matrix parameters — an alternative preconditioner whose gradients COMPSO
// compresses identically to K-FAC's.
func NewShampoo(model *nn.Sequential, epsilon float64, updateFreq int) *kfac.Shampoo {
	return kfac.NewShampoo(model, epsilon, updateFreq)
}
