// Package obs is the simulated-time observability layer: hierarchical
// spans on the cluster's simulated clock, a typed metrics registry
// (counters, gauges, histograms), and exporters (Chrome trace.json for
// chrome://tracing / Perfetto, a flat JSON metrics dump, and an
// in-process Snapshot API for tests and experiments).
//
// The central object is the Recorder. A nil *Recorder is the disabled
// recorder: every method is a nil-receiver no-op that performs zero heap
// allocations, so instrumentation can stay inline on hot paths without
// affecting uninstrumented runs (guarded by TestDisabledRecorderZeroAlloc).
//
// Spans carry the attributes the COMPSO experiments need to audit the
// paper's §5 claim — that (de)compression overhead stays below the
// communication it saves: worker/rank, category (step, phase, collective,
// transfer, compress, precondition, control), bytes in/out, layer index,
// and the collective algorithm chosen by the autotuner. All timestamps are
// simulated seconds, not wall-clock time.
//
// The package sits at the bottom of the dependency graph: it imports
// nothing from the rest of the repo, so every layer (cluster, collective,
// compress, compso, train) can record into it.
package obs

import (
	"sync"
)

// Category classifies a span for grouping and per-category accounting.
type Category string

// The span categories emitted by the instrumented pipeline.
const (
	// CatStep is one training iteration on one worker.
	CatStep Category = "step"
	// CatPhase is a sub-step phase (grad-sync, factor-sync, eigendecomp,
	// precondition-gather, ...).
	CatPhase Category = "phase"
	// CatCollective is one collective call as seen by one rank: the span
	// covers exactly the simulated time the rank was blocked, so per-
	// algorithm span sums reconcile with cluster AlgSeconds attribution.
	CatCollective Category = "collective"
	// CatTransfer is one point-to-point link transfer inside a collective
	// schedule (link-occupancy view; recorded only with WithTransferSpans).
	CatTransfer Category = "transfer"
	// CatCompress covers (de)compression work, timed by the gpusim kernel
	// cost model.
	CatCompress Category = "compress"
	// CatPrecondition covers K-FAC eigendecomposition and preconditioning
	// compute.
	CatPrecondition Category = "precondition"
	// CatControl marks controller decisions (strategy switches, autotuner
	// picks) — usually zero-duration instant spans.
	CatControl Category = "control"
)

// SpanID identifies a recorded span; the zero value means "no span" and is
// accepted (and ignored) anywhere a parent or end target is expected.
type SpanID uint64

// Attrs carries optional span attributes. The zero value means "no
// attributes"; Layer and Peer use -1 for "not applicable" (NoAttrs has them
// pre-set).
type Attrs struct {
	// Algorithm is the collective algorithm or compressor name.
	Algorithm string
	// Label is a free-form qualifier (train comm category, strategy name).
	Label string
	// Link is the link class for transfer spans ("intra"/"inter").
	Link string
	// Layer is the model layer index, -1 when not applicable.
	Layer int
	// Peer is the remote rank for transfer spans, -1 when not applicable.
	Peer int
	// Step is the schedule step within a collective, -1 when n/a.
	Step int
	// BytesIn and BytesOut are the span's data sizes (e.g. uncompressed
	// and compressed bytes for compress spans, wire bytes for transfers).
	BytesIn, BytesOut int64
	// Value is a generic numeric attribute (e.g. an error bound).
	Value float64
}

// NoAttrs is the canonical empty attribute set (Layer/Peer/Step = -1).
var NoAttrs = Attrs{Layer: -1, Peer: -1, Step: -1}

// Span is one recorded span. End < Start never occurs (End is clamped);
// End == Start is an instant event.
type Span struct {
	ID     SpanID
	Parent SpanID
	Rank   int
	Cat    Category
	Name   string
	Start  float64
	End    float64
	Attrs  Attrs
}

// Duration returns the span's simulated seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// DefaultMaxSpans bounds span retention per recorder unless overridden
// with WithMaxSpans; spans beyond the cap are counted but dropped.
const DefaultMaxSpans = 1 << 18

// Option configures a Recorder at construction.
type Option func(*Recorder)

// WithMaxSpans caps span retention (n <= 0 keeps the default).
func WithMaxSpans(n int) Option {
	return func(r *Recorder) {
		if n > 0 {
			r.maxSpans = n
		}
	}
}

// WithTransferSpans enables per-transfer link-occupancy spans inside
// collective schedules. These are voluminous (one span per scheduled
// point-to-point message), so they are off by default.
func WithTransferSpans(enabled bool) Option {
	return func(r *Recorder) { r.transferSpans = enabled }
}

// Recorder collects spans and metrics. All methods are safe for concurrent
// use from the simulated workers' goroutines, and all methods are no-ops
// (with zero allocations) on a nil receiver.
type Recorder struct {
	mu            sync.Mutex
	maxSpans      int
	transferSpans bool
	spans         []Span
	open          map[SpanID]int // open span ID -> index in spans
	nextID        SpanID
	dropped       int64

	metricsMu  sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRecorder returns an enabled recorder.
func NewRecorder(opts ...Option) *Recorder {
	r := &Recorder{
		maxSpans:   DefaultMaxSpans,
		open:       make(map[SpanID]int),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Enabled reports whether the recorder records anything (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// TransferSpans reports whether per-transfer spans should be recorded.
// Callers use it to skip event-conversion loops entirely when disabled.
func (r *Recorder) TransferSpans() bool { return r != nil && r.transferSpans }

// StartSpan opens a span at the given simulated start time and returns its
// ID (0 when the recorder is disabled or the span cap is reached). parent
// may be 0 for a root span.
func (r *Recorder) StartSpan(parent SpanID, rank int, cat Category, name string, start float64) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.maxSpans {
		r.dropped++
		return 0
	}
	r.nextID++
	id := r.nextID
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Rank: rank, Cat: cat, Name: name,
		Start: start, End: start, Attrs: NoAttrs,
	})
	r.open[id] = len(r.spans) - 1
	return id
}

// EndSpan closes an open span at the given simulated end time (clamped to
// the span's start). Unknown or zero IDs are ignored.
func (r *Recorder) EndSpan(id SpanID, end float64) {
	r.EndSpanAttrs(id, end, NoAttrs)
}

// EndSpanAttrs closes an open span and attaches attributes.
func (r *Recorder) EndSpanAttrs(id SpanID, end float64, a Attrs) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.open[id]
	if !ok {
		return
	}
	delete(r.open, id)
	sp := &r.spans[idx]
	if end < sp.Start {
		end = sp.Start
	}
	sp.End = end
	if a != NoAttrs {
		sp.Attrs = a
	}
}

// Span records a complete span in one call and returns its ID.
func (r *Recorder) Span(parent SpanID, rank int, cat Category, name string, start, end float64, a Attrs) SpanID {
	if r == nil {
		return 0
	}
	if end < start {
		end = start
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.maxSpans {
		r.dropped++
		return 0
	}
	r.nextID++
	id := r.nextID
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Rank: rank, Cat: cat, Name: name,
		Start: start, End: end, Attrs: a,
	})
	return id
}

// Instant records a zero-duration marker span (rendered as an instant
// event in the Chrome trace).
func (r *Recorder) Instant(parent SpanID, rank int, cat Category, name string, ts float64, a Attrs) {
	r.Span(parent, rank, cat, name, ts, ts, a)
}

// DroppedSpans returns how many spans were discarded at the cap.
func (r *Recorder) DroppedSpans() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// SpanCount returns the number of retained spans.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshotSpans copies the retained spans (open spans appear with
// End == Start as of their opening).
func (r *Recorder) snapshotSpans() ([]Span, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out, r.dropped
}
