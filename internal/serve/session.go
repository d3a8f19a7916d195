package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"compso/internal/compress"
	internalcompso "compso/internal/compso"
	"compso/internal/encoding"
	"compso/internal/opt"
)

// SessionConfig is the JSON body of POST /v1/sessions. Unset numeric fields
// take the library defaults; Compressor defaults to "compso" and Codec to
// "ans".
type SessionConfig struct {
	// Tenant groups sessions for admission control and metrics. Empty maps
	// to "default".
	Tenant string `json:"tenant"`
	// Compressor selects the family from the compress registry: "compso"
	// (default), "qsgd", "sz", "cocktail" or "powersgd".
	Compressor string `json:"compressor"`
	// Codec names the lossless back-end for COMPSO (see /v1/codecs);
	// default "ans". Per-request override: the X-Compso-Codec header or an
	// Accept media-type parameter ";codec=".
	Codec string `json:"codec"`
	// EBFilter/EBQuant are COMPSO's error bounds (default 4e-3 each).
	EBFilter float64 `json:"eb_filter"`
	EBQuant  float64 `json:"eb_quant"`
	// Filter disables COMPSO's filter stage when set to false (default
	// true).
	Filter *bool `json:"filter"`
	// RelEB is SZ's range-relative error bound (default 1e-3).
	RelEB float64 `json:"rel_eb"`
	// Bits is the quantization width for qsgd/cocktail (default 4 / 8).
	Bits int `json:"bits"`
	// Keep is cocktail's top-k keep fraction (default 0.04).
	Keep float64 `json:"keep"`
	// Rank is powersgd's factorization rank (default 4). PowerSGD
	// sessions are stateful streams: every compress request must carry
	// the same gradient length (pinned on first use).
	Rank int `json:"rank"`
	// ErrorFeedback wraps the compressor with an error-feedback residual.
	// EF sessions must send same-length gradients on every request.
	ErrorFeedback bool `json:"error_feedback"`
	// Seed fixes the stochastic-rounding stream; sessions with equal
	// configs and seeds produce bit-identical blobs to direct library use.
	Seed int64 `json:"seed"`
	// Adapt enables the paper's iteration-wise error-bound controller:
	// every compress call counts as one training iteration. COMPSO only.
	Adapt *AdaptConfig `json:"adapt,omitempty"`
}

// AdaptConfig configures the per-session autotune controller (Algorithm 1).
type AdaptConfig struct {
	// Schedule is "step" (loose bounds until FirstDrop, then tight
	// SR-only) or "smooth" (staged decay across TotalIters).
	Schedule string `json:"schedule"`
	// TotalIters is the session's expected iteration budget.
	TotalIters int `json:"total_iters"`
	// FirstDrop is the step schedule's strategy-switch iteration
	// (default TotalIters/2).
	FirstDrop int `json:"first_drop"`
}

// SessionInfo is the JSON view of a session returned by create/get.
type SessionInfo struct {
	ID              string `json:"session"`
	Tenant          string `json:"tenant"`
	Compressor      string `json:"compressor"`
	Codec           string `json:"codec,omitempty"`
	ErrorFeedback   bool   `json:"error_feedback,omitempty"`
	Adaptive        bool   `json:"adaptive,omitempty"`
	CompressCalls   int64  `json:"compress_calls"`
	DecompressCalls int64  `json:"decompress_calls"`
	BytesIn         int64  `json:"bytes_in"`
	BytesOut        int64  `json:"bytes_out"`
}

// Session is one tenant's compression stream: the codec configuration, the
// autotune controller state and the error-feedback residual live here, and
// mu serializes every use of the stateful compressor underneath. Requests
// for different sessions proceed fully in parallel.
type Session struct {
	id     string
	tenant string
	ts     *tenantState

	mu     sync.Mutex
	comp   compress.Compressor // operating compressor (EF-wrapped when configured)
	compso *compress.COMPSO    // non-nil for the compso family (codec negotiation + adapt)
	ctrl   *internalcompso.Controller
	step   int
	closed bool

	inflight atomic.Int64 // data-plane requests currently inside this session
	lastUsed atomic.Int64 // unix nanos of the last data-plane touch

	compressCalls, decompressCalls atomic.Int64
	bytesIn, bytesOut              atomic.Int64

	cfg SessionConfig
}

// normalize fills defaults and validates the config. Family names resolve
// through the compress registry (case-insensitively, aliases included),
// and the per-family parameter validation mirrors the registry's so a bad
// config fails here with a 400 instead of surfacing at the first request.
func (c *SessionConfig) normalize() error {
	if c.Tenant == "" {
		c.Tenant = "default"
	}
	if c.Compressor == "" {
		c.Compressor = "compso"
	}
	family, err := compress.CanonicalFamily(c.Compressor)
	if err != nil {
		return fmt.Errorf("unknown compressor %q (have %v)", c.Compressor, compress.Families())
	}
	c.Compressor = family
	switch c.Compressor {
	case "compso":
		if c.Codec == "" {
			c.Codec = "ANS"
		}
		cdc, err := encoding.ByName(c.Codec)
		if err != nil {
			return err
		}
		c.Codec = cdc.Name() // canonicalize case
		if c.EBFilter == 0 {
			c.EBFilter = 4e-3
		}
		if c.EBQuant == 0 {
			c.EBQuant = 4e-3
		}
		if c.EBFilter < 0 || c.EBQuant < 0 {
			return fmt.Errorf("negative error bound")
		}
	case "qsgd":
		if c.Bits == 0 {
			c.Bits = 4
		}
		// The registry bound: QSGD's Elias-gamma path supports widths up
		// to 16 (wider configs previously slipped past validation and
		// panicked at the first compress call).
		if c.Bits < 2 || c.Bits > 16 {
			return fmt.Errorf("qsgd bits %d out of range [2,16]", c.Bits)
		}
	case "sz":
		if c.RelEB == 0 {
			c.RelEB = 1e-3
		}
		if c.RelEB < 0 {
			return fmt.Errorf("negative sz error bound")
		}
	case "cocktail":
		if c.Bits == 0 {
			c.Bits = 8
		}
		if c.Keep == 0 {
			c.Keep = 0.04
		}
		if c.Keep <= 0 || c.Keep > 1 {
			return fmt.Errorf("cocktail keep %g out of (0,1]", c.Keep)
		}
	case "powersgd":
		if c.Rank == 0 {
			c.Rank = 4
		}
		if c.Rank < 1 || c.Rank > 256 {
			return fmt.Errorf("powersgd rank %d out of range [1,256]", c.Rank)
		}
	}
	if c.Adapt != nil {
		if c.Compressor != "compso" {
			return fmt.Errorf("adapt requires the compso compressor")
		}
		if c.Adapt.TotalIters <= 0 {
			return fmt.Errorf("adapt.total_iters must be positive")
		}
		switch c.Adapt.Schedule {
		case "", "step", "smooth":
		default:
			return fmt.Errorf("unknown adapt schedule %q", c.Adapt.Schedule)
		}
	}
	return nil
}

// newSession builds the session's compressor stack from a normalized
// config by resolving through the compress registry — the same
// construction path as the library facade and the command-line tools, so
// equal configs are bit-identical across all three.
func newSession(id string, cfg SessionConfig) (*Session, error) {
	sess := &Session{id: id, tenant: cfg.Tenant, cfg: cfg}
	o := compress.Options{
		Seed:          cfg.Seed,
		EBFilter:      cfg.EBFilter,
		EBQuant:       cfg.EBQuant,
		Filter:        cfg.Filter,
		Bits:          cfg.Bits,
		Keep:          cfg.Keep,
		RelEB:         cfg.RelEB,
		Rank:          cfg.Rank,
		ErrorFeedback: cfg.ErrorFeedback,
	}
	if cfg.Compressor == "compso" {
		cdc, err := encoding.ByName(cfg.Codec)
		if err != nil {
			return nil, err
		}
		o.Codec = cdc
	}
	comp, err := compress.ByName(cfg.Compressor, o)
	if err != nil {
		return nil, err
	}
	sess.comp = comp
	// The compso family keeps a concrete handle for per-request codec
	// negotiation and the adapt controller, through an EF wrapper if one
	// is configured.
	inner := comp
	if ef, ok := comp.(*compress.ErrorFeedback); ok {
		inner = ef.Inner
	}
	if cc, ok := inner.(*compress.COMPSO); ok {
		sess.compso = cc
	}
	if a := cfg.Adapt; a != nil {
		var sched opt.Schedule
		firstDrop := a.FirstDrop
		if firstDrop <= 0 {
			firstDrop = a.TotalIters / 2
		}
		if a.Schedule == "smooth" {
			sched = &opt.SmoothLR{}
		} else {
			sched = &opt.StepLR{Drops: []int{firstDrop}}
		}
		ctrl := internalcompso.DefaultController(sched, a.TotalIters)
		if err := ctrl.Validate(); err != nil {
			return nil, err
		}
		sess.ctrl = ctrl
	}
	sess.lastUsed.Store(time.Now().UnixNano())
	return sess, nil
}

// info snapshots the session for JSON responses.
func (s *Session) info() SessionInfo {
	return SessionInfo{
		ID:              s.id,
		Tenant:          s.tenant,
		Compressor:      s.comp.Name(),
		Codec:           s.cfg.Codec,
		ErrorFeedback:   s.cfg.ErrorFeedback,
		Adaptive:        s.ctrl != nil,
		CompressCalls:   s.compressCalls.Load(),
		DecompressCalls: s.decompressCalls.Load(),
		BytesIn:         s.bytesIn.Load(),
		BytesOut:        s.bytesOut.Load(),
	}
}

// compress runs one serialized compress call. codecOverride, when non-empty
// and the session runs COMPSO, switches the lossless back-end for this call
// only (the content-negotiation path); the session's configured codec is
// restored before the lock is released.
func (s *Session) compress(src []float32, codecOverride string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errSessionClosed
	}
	if s.ctrl != nil {
		s.ctrl.Apply(s.step, s.compso)
		s.step++
	}
	if codecOverride != "" && s.compso != nil {
		cdc, err := encoding.ByName(codecOverride)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", errBadRequest, err)
		}
		prev := s.compso.Codec
		s.compso.Codec = cdc
		defer func() { s.compso.Codec = prev }()
	}
	blob, err := s.comp.Compress(src)
	if err != nil {
		// A gradient whose length breaks the stream's established shape
		// (the EF residual contract), or with values the family cannot
		// code, is the client's mistake, not ours.
		if errors.Is(err, compress.ErrLengthMismatch) || errors.Is(err, compress.ErrOutOfRange) {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		return nil, err
	}
	s.compressCalls.Add(1)
	return blob, nil
}

// decompress runs one serialized decompress call. Blobs self-describe their
// back-end codec, so no negotiation is needed on this side.
func (s *Session) decompress(blob []byte) ([]float32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errSessionClosed
	}
	vals, err := s.comp.Decompress(blob)
	if err != nil {
		return nil, err
	}
	s.decompressCalls.Add(1)
	return vals, nil
}

// close marks the session dead. The lock excludes in-flight codec use, so a
// concurrent request finishes cleanly (and returns its pooled buffers)
// before the state is dropped; stream state (EF residuals, PowerSGD
// factors) is released uniformly through the Stateful contract here.
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if st, ok := s.comp.(compress.Stateful); ok {
		st.Reset()
	}
}

// touch records data-plane activity for the idle reaper.
func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }
