package compso

import (
	"fmt"
	"strings"

	"compso/internal/compress"
	"compso/internal/obs"
)

// Observer records simulated-time spans and metrics (see NewObserver). A
// nil Observer disables instrumentation at zero cost.
type Observer = obs.Recorder

// ObserverOption configures an Observer.
type ObserverOption = obs.Option

// Snapshot is an Observer's state at a point in time: spans plus counter,
// gauge and histogram values.
type Snapshot = obs.Snapshot

// NewObserver returns an observability recorder to pass to TrainConfig.Obs
// (or compso.New via WithObserver). Options: WithMaxSpans bounds span
// retention; WithTransferSpans adds per-transfer link-occupancy spans.
func NewObserver(opts ...ObserverOption) *Observer { return obs.NewRecorder(opts...) }

// WithMaxSpans bounds how many spans an Observer retains (default 262144);
// further spans are counted as dropped.
func WithMaxSpans(n int) ObserverOption { return obs.WithMaxSpans(n) }

// WithTransferSpans enables per-transfer link-occupancy spans in the
// collective engine's stepped simulations (off by default: they are the
// highest-volume span source).
func WithTransferSpans(enabled bool) ObserverOption { return obs.WithTransferSpans(enabled) }

// Option configures a COMPSO compressor built by New.
type Option func(*compressorConfig)

// compressorConfig accumulates New's options before construction.
type compressorConfig struct {
	seed        int64
	errorBound  float64
	filterBound float64
	filterSet   bool
	codec       Codec
	observer    *Observer

	family     string
	rank       int
	rows, cols int
	bits       int
	keep       float64
	relEB      float64
	ef         bool
}

// WithSeed sets the deterministic stochastic-rounding stream. Distributed
// workers should derive distinct seeds per rank (e.g. seed*1000+rank) so
// their rounding decisions decorrelate.
func WithSeed(seed int64) Option {
	return func(c *compressorConfig) { c.seed = seed }
}

// WithErrorBound sets the stochastic-rounding quantizer bound eb_q
// (default 4e-3, the paper's aggressive setting).
func WithErrorBound(eb float64) Option {
	return func(c *compressorConfig) { c.errorBound = eb }
}

// WithFilterBound sets the filter bound eb_f and enables the filter;
// passing 0 disables the filter (the conservative SR-only strategy).
func WithFilterBound(eb float64) Option {
	return func(c *compressorConfig) {
		c.filterBound = eb
		c.filterSet = true
	}
}

// WithCodec selects the lossless back-end encoder (default ANS; see
// Codecs and CodecByName for the Table 2 set).
func WithCodec(codec Codec) Option {
	return func(c *compressorConfig) { c.codec = codec }
}

// WithObserver attaches an observability recorder: each Compress call
// feeds the observer's "compress/ratio" and "compress/filter_hit_rate"
// histograms and "compress/calls" counter. For full simulated-time spans,
// pass the same observer to TrainConfig.Obs.
func WithObserver(o *Observer) Option {
	return func(c *compressorConfig) { c.observer = o }
}

// WithFamily selects the compressor family for NewCompressorFor (see
// Families for the registry: "compso", "qsgd", "sz", "cocktail",
// "powersgd"). Names are matched case-insensitively.
func WithFamily(name string) Option {
	return func(c *compressorConfig) { c.family = name }
}

// WithRank sets the powersgd factorization rank k (default 4). Wire
// volume scales with k·(rows+cols), reconstruction quality with k.
func WithRank(k int) Option {
	return func(c *compressorConfig) { c.rank = k }
}

// WithShape pins the powersgd 2D gradient view (e.g. a layer's natural
// ADim×GDim). Unset, the family uses a near-square reshape of the first
// gradient's length.
func WithShape(rows, cols int) Option {
	return func(c *compressorConfig) { c.rows, c.cols = rows, cols }
}

// WithBits sets the quantization width for the qsgd and cocktail families
// (defaults 4 and 8).
func WithBits(bits int) Option {
	return func(c *compressorConfig) { c.bits = bits }
}

// WithKeepFraction sets the cocktail family's top-k keep fraction
// (default 0.04).
func WithKeepFraction(f float64) Option {
	return func(c *compressorConfig) { c.keep = f }
}

// WithRelErrorBound sets the sz family's range-relative error bound
// (default 1e-3).
func WithRelErrorBound(eb float64) Option {
	return func(c *compressorConfig) { c.relEB = eb }
}

// WithErrorFeedback wraps the built compressor with an error-feedback
// residual — the uniform EF composition for every lossy family. EF
// streams must send same-length gradients on every call (the length is
// pinned on first use).
func WithErrorFeedback() Option {
	return func(c *compressorConfig) { c.ef = true }
}

// registryOptions lowers the accumulated functional options to the
// internal registry's option struct, preserving New's historical
// semantics for the filter toggle (a non-positive filter bound disables
// the stage).
func (c *compressorConfig) registryOptions() compress.Options {
	o := compress.Options{
		Seed:    c.seed,
		EBQuant: max(c.errorBound, 0),
		Codec:   c.codec,
		Obs:     c.observer,
		Bits:    c.bits,
		Keep:    c.keep,
		RelEB:   c.relEB,
		Rank:    c.rank,
		Rows:    c.rows,
		Cols:    c.cols,
	}
	if c.filterSet {
		enabled := c.filterBound > 0
		o.Filter = &enabled
		if enabled {
			o.EBFilter = c.filterBound
		}
	}
	o.ErrorFeedback = c.ef
	return o
}

// New builds a COMPSO compressor from functional options, resolving
// through the family registry. With no options it is the paper's default
// configuration: filter+SR at eb_f = eb_q = 4e-3 with the ANS back-end
// and a deterministic stochastic-rounding stream (seed 0).
//
// New always returns the concrete *COMPSO type; it panics when given
// WithFamily for a different family or WithErrorFeedback (which would
// change the return type) — use NewCompressorFor for those.
func New(opts ...Option) *COMPSO {
	cfg := compressorConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.family != "" {
		if f, err := compress.CanonicalFamily(cfg.family); err != nil || f != "compso" {
			panic("compso.New builds the COMPSO family; use NewCompressorFor(" + cfg.family + ", ...)")
		}
	}
	if cfg.ef {
		panic("compso.New returns *COMPSO; use NewCompressorFor for error-feedback wrapping")
	}
	c, err := compress.ByName("compso", cfg.registryOptions())
	if err != nil {
		panic("compso.New: " + err.Error())
	}
	return c.(*COMPSO)
}

// NewCompressorFor builds any registered compressor family by name from
// functional options:
//
//	c, err := compso.NewCompressorFor("powersgd",
//		compso.WithRank(4), compso.WithSeed(7), compso.WithErrorFeedback())
//
// The family argument may be empty when WithFamily is among the options;
// an explicit argument and a conflicting WithFamily is an error. Unknown
// names return an error wrapping ErrUnknownFamily listing Families().
// Builds are bit-identical to direct construction with the same
// parameters, and WithErrorFeedback composes uniformly on every family.
func NewCompressorFor(family string, opts ...Option) (Compressor, error) {
	cfg := compressorConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	switch {
	case family == "":
		family = cfg.family
		if family == "" {
			family = "compso"
		}
	case cfg.family != "" && !strings.EqualFold(cfg.family, family):
		return nil, fmt.Errorf("compso: family %q conflicts with WithFamily(%q)", family, cfg.family)
	}
	return compress.ByName(family, cfg.registryOptions())
}
