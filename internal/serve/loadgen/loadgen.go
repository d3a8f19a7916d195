// Package loadgen is the traffic generator for compso-serve: it drives
// thousands of concurrent compression sessions with heavy-tailed request
// sizes sampled from the modelzoo's real layer-size distributions, measures
// throughput and latency percentiles, accounts backpressure (429) separately
// from failures, and optionally injects deterministic payload corruption via
// internal/fault to chaos-test the decode path (corrupt payloads must come
// back as clean 4xx, never 5xx).
//
// The generator talks plain HTTP through a pluggable RoundTripper:
// cmd/compso-serve's loadgen subcommand uses a real TCP transport, while the
// smoke mode and tests drive the server's http.Handler
// in-process with HandlerTransport — no ports, no fd limits, which is what
// makes the 1000-session CI run practical.
package loadgen

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compso/internal/fault"
	"compso/internal/modelzoo"
	"compso/internal/serve"
	"compso/internal/xrand"
)

// Config shapes one load-generation run.
type Config struct {
	// BaseURL targets the server, e.g. "http://127.0.0.1:8080". With an
	// in-process Transport any syntactically valid URL works.
	BaseURL string
	// Transport carries the requests (nil: a tuned TCP transport).
	Transport http.RoundTripper
	// Sessions is the number of concurrent sessions (default 64). Each
	// session runs in its own goroutine for its whole lifetime, so this is
	// also the concurrency level.
	Sessions int
	// RequestsPerSession is the compress(+decompress) round-trips per
	// session (default 10).
	RequestsPerSession int
	// Tenants spreads sessions across this many tenant names (default 4).
	Tenants int
	// Model names the modelzoo profile whose layer sizes form the
	// heavy-tailed request-size distribution (default "ResNet-50").
	Model string
	// MaxElems caps the per-request gradient length (default 1<<18).
	MaxElems int
	// Compressor is the session compressor family (default "compso").
	Compressor string
	// Codec is the session's lossless back-end ("" = server default).
	Codec string
	// Seed makes the run deterministic (sizes, values, chaos picks).
	Seed int64
	// ChaosRate corrupts this fraction of decompress payloads with
	// deterministic bit flips from internal/fault (0 disables chaos).
	ChaosRate float64
	// Verify checks that decompressed responses have the right length.
	Verify bool
	// RetryBudget bounds per-request retries after 429 (default 100).
	RetryBudget int
	// Backoff is the base delay after a 429 (default 1ms, linearly
	// increased per attempt; kept far below the server's Retry-After so
	// overload tests finish quickly).
	Backoff time.Duration
	// KeepSessions leaves sessions open at the end instead of DELETE-ing
	// them (for tests that inspect server state afterwards).
	KeepSessions bool
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 64
	}
	if c.RequestsPerSession <= 0 {
		c.RequestsPerSession = 10
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Model == "" {
		c.Model = "ResNet-50"
	}
	if c.MaxElems <= 0 {
		c.MaxElems = 1 << 18
	}
	if c.Compressor == "" {
		c.Compressor = "compso"
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 100
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.Transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = 0
		t.MaxIdleConnsPerHost = 256
		c.Transport = t
	}
	if c.BaseURL == "" {
		c.BaseURL = "http://compso-serve"
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	return c
}

// Report is the run's outcome.
type Report struct {
	Sessions  int   `json:"sessions"`
	Requests  int64 `json:"requests"` // completed compress round-trips
	Errors    int64 `json:"errors"`   // unexpected failures (5xx, transport, verify)
	Shed      int64 `json:"shed"`     // 429 responses observed (each retried)
	Exhausted int64 `json:"retry_exhausted"`
	// Chaos accounting: corrupted payloads must land in Rejected (clean
	// 4xx) or — when the flips happen to keep the blob decodable —
	// Accepted; anything else is an Error.
	ChaosSent     int64 `json:"chaos_sent"`
	ChaosRejected int64 `json:"chaos_rejected"`
	ChaosAccepted int64 `json:"chaos_accepted"`

	BytesUncompressed int64   `json:"bytes_uncompressed"`
	BytesCompressed   int64   `json:"bytes_compressed"`
	WallSeconds       float64 `json:"wall_seconds"`
	// CompressMBPerSec is uncompressed input through /compress per wall
	// second across all sessions.
	CompressMBPerSec float64 `json:"compress_mb_per_s"`
	MeanRatio        float64 `json:"mean_ratio"`

	LatencyP50 float64 `json:"latency_p50_s"`
	LatencyP95 float64 `json:"latency_p95_s"`
	LatencyP99 float64 `json:"latency_p99_s"`

	// ErrorSamples holds the first few distinct failure messages.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// run-wide mutable state shared by the session workers.
type runState struct {
	cfg      Config
	client   *http.Client
	profile  modelzoo.Profile
	injector *fault.Injector

	requests, errors, shed, exhausted       atomic.Int64
	chaosSent, chaosRejected, chaosAccepted atomic.Int64
	bytesUncompressed, bytesCompressed      atomic.Int64

	mu        sync.Mutex
	latencies []float64
	ratioSum  float64
	ratioN    int64
	samples   []string
}

func (st *runState) fail(format string, args ...any) {
	st.errors.Add(1)
	st.mu.Lock()
	if len(st.samples) < 8 {
		st.samples = append(st.samples, fmt.Sprintf(format, args...))
	}
	st.mu.Unlock()
}

// Run executes the configured load against the target and returns the
// aggregated report. It fails fast only on setup errors; request-level
// failures are counted in the report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	profile, err := modelzoo.ByName(cfg.Model)
	if err != nil {
		return nil, err
	}
	st := &runState{
		cfg:     cfg,
		client:  &http.Client{Transport: cfg.Transport},
		profile: profile,
	}
	if cfg.ChaosRate > 0 {
		plan := &fault.Plan{Seed: cfg.Seed + 7, Corruption: fault.Corruption{Rate: 1}}
		inj, err := fault.NewInjector(plan)
		if err != nil {
			return nil, err
		}
		st.injector = inj
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st.session(ctx, i)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	rep := &Report{
		Sessions:          cfg.Sessions,
		Requests:          st.requests.Load(),
		Errors:            st.errors.Load(),
		Shed:              st.shed.Load(),
		Exhausted:         st.exhausted.Load(),
		ChaosSent:         st.chaosSent.Load(),
		ChaosRejected:     st.chaosRejected.Load(),
		ChaosAccepted:     st.chaosAccepted.Load(),
		BytesUncompressed: st.bytesUncompressed.Load(),
		BytesCompressed:   st.bytesCompressed.Load(),
		WallSeconds:       wall,
		ErrorSamples:      st.samples,
	}
	if wall > 0 {
		rep.CompressMBPerSec = float64(rep.BytesUncompressed) / wall / 1e6
	}
	if st.ratioN > 0 {
		rep.MeanRatio = st.ratioSum / float64(st.ratioN)
	}
	sort.Float64s(st.latencies)
	rep.LatencyP50 = percentile(st.latencies, 0.50)
	rep.LatencyP95 = percentile(st.latencies, 0.95)
	rep.LatencyP99 = percentile(st.latencies, 0.99)
	return rep, nil
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// session runs one session's whole lifetime: create, the request loop,
// delete.
func (st *runState) session(ctx context.Context, idx int) {
	cfg := st.cfg
	rng := xrand.NewSeeded(cfg.Seed + int64(idx)*1000003)
	tenant := fmt.Sprintf("t%d", idx%cfg.Tenants)

	id, err := st.createSession(ctx, tenant, cfg.Seed+int64(idx))
	if err != nil {
		st.fail("session %d create: %v", idx, err)
		return
	}
	if !cfg.KeepSessions {
		defer st.deleteSession(id)
	}

	for r := 0; r < cfg.RequestsPerSession; r++ {
		if ctx.Err() != nil {
			return
		}
		// Heavy-tailed sizes: layer parameter counts span ~3 orders of
		// magnitude within one profile; sampling layers uniformly
		// reproduces that tail.
		layer := rng.IntN(len(st.profile.Layers))
		grad := st.profile.SyntheticGradient(rng, layer, cfg.MaxElems)
		body := make([]byte, 4*len(grad))
		f32ToBytes(body, grad)

		t0 := time.Now()
		blob, err := st.roundTrip(ctx, id, "compress", body, ctFloat32, http.StatusOK)
		if err != nil {
			st.fail("session %d compress: %v", idx, err)
			continue
		}
		st.requests.Add(1)
		st.bytesUncompressed.Add(int64(len(body)))
		st.bytesCompressed.Add(int64(len(blob)))
		lat := time.Since(t0).Seconds()
		st.mu.Lock()
		st.latencies = append(st.latencies, lat)
		st.ratioSum += float64(len(body)) / float64(max(len(blob), 1))
		st.ratioN++
		st.mu.Unlock()

		// Chaos: corrupt a fraction of the blobs before sending them
		// back; a degraded client must get a clean rejection. Shed (429)
		// is backpressure, not a verdict — retry like every other request.
		if st.injector != nil && rng.Float64() < cfg.ChaosRate {
			st.chaosSent.Add(1)
			corrupted, _ := st.injector.CorruptBlob(blob, r, idx, 0)
			resp, code, err := st.postRetry(ctx, id, "decompress", corrupted, ctBlob)
			if err != nil {
				st.fail("session %d chaos decompress transport: %v", idx, err)
				continue
			}
			switch {
			case code == http.StatusBadRequest:
				st.chaosRejected.Add(1)
			case code == http.StatusOK:
				st.chaosAccepted.Add(1)
			default:
				st.fail("session %d chaos decompress: status %d: %s", idx, code, truncate(resp))
			}
			continue
		}

		restored, err := st.roundTrip(ctx, id, "decompress", blob, ctBlob, http.StatusOK)
		if err != nil {
			st.fail("session %d decompress: %v", idx, err)
			continue
		}
		if cfg.Verify && len(restored) != len(body) {
			st.fail("session %d verify: restored %d bytes, want %d", idx, len(restored), len(body))
		}
	}
}

// roundTrip posts with 429-aware retry and asserts the final status.
func (st *runState) roundTrip(ctx context.Context, id, op string, body []byte, contentType string, wantStatus int) ([]byte, error) {
	resp, code, err := st.postRetry(ctx, id, op, body, contentType)
	if err != nil {
		return nil, err
	}
	if code != wantStatus {
		return nil, fmt.Errorf("%s: status %d, want %d: %s", op, code, wantStatus, truncate(resp))
	}
	return resp, nil
}

// postRetry posts, absorbing 429 backpressure with backoff until the retry
// budget runs out; any other status is returned to the caller to judge.
func (st *runState) postRetry(ctx context.Context, id, op string, body []byte, contentType string) ([]byte, int, error) {
	for attempt := 0; ; attempt++ {
		resp, code, err := st.post(ctx, id, op, body, contentType)
		if err != nil {
			return nil, code, err
		}
		if code != http.StatusTooManyRequests {
			return resp, code, nil
		}
		st.shed.Add(1)
		if attempt >= st.cfg.RetryBudget {
			st.exhausted.Add(1)
			return nil, code, fmt.Errorf("retry budget exhausted after %d 429s", attempt+1)
		}
		select {
		case <-ctx.Done():
			return nil, code, ctx.Err()
		case <-time.After(st.cfg.Backoff * time.Duration(attempt/4+1)):
		}
	}
}

// post issues one data-plane request and returns body + status.
func (st *runState) post(ctx context.Context, id, op string, body []byte, contentType string) ([]byte, int, error) {
	url := st.cfg.BaseURL + "/v1/sessions/" + id + "/" + op
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return data, resp.StatusCode, nil
}

// createSession opens one session, retrying on shed (429).
func (st *runState) createSession(ctx context.Context, tenant string, seed int64) (string, error) {
	cfgBody, _ := json.Marshal(serve.SessionConfig{
		Tenant:     tenant,
		Compressor: st.cfg.Compressor,
		Codec:      st.cfg.Codec,
		Seed:       seed,
	})
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.cfg.BaseURL+"/v1/sessions", bytes.NewReader(cfgBody))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := st.client.Do(req)
		if err != nil {
			return "", err
		}
		data, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr != nil {
			return "", readErr
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			st.shed.Add(1)
			if attempt >= st.cfg.RetryBudget {
				st.exhausted.Add(1)
				return "", fmt.Errorf("session create: retry budget exhausted")
			}
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(st.cfg.Backoff * time.Duration(attempt/4+1)):
			}
			continue
		}
		if resp.StatusCode != http.StatusCreated {
			return "", fmt.Errorf("session create: status %d: %s", resp.StatusCode, truncate(data))
		}
		var info serve.SessionInfo
		if err := json.Unmarshal(data, &info); err != nil {
			return "", fmt.Errorf("session create: bad response: %w", err)
		}
		return info.ID, nil
	}
}

func (st *runState) deleteSession(id string) {
	req, err := http.NewRequest(http.MethodDelete, st.cfg.BaseURL+"/v1/sessions/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := st.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func truncate(b []byte) string {
	const n = 160
	if len(b) > n {
		b = b[:n]
	}
	return strings.TrimSpace(string(b))
}

const (
	ctFloat32 = "application/x-compso-float32"
	ctBlob    = "application/x-compso-blob"
)

// f32ToBytes encodes little-endian float32s (client-side sibling of the
// server's converter).
func f32ToBytes(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}
