// Package serve turns the COMPSO library into a long-running, multi-tenant
// compression-as-a-service: a streaming HTTP API over the repository's
// compressors, with per-tenant sessions, admission control with
// backpressure, and per-tenant observability.
//
// The ROADMAP's "millions of users" direction needs exactly three properties
// from the codec layer, and this package is where they are enforced:
//
//   - Reentrancy. Compressor instances are single-threaded objects (the
//     stochastic-rounding RNG and the error-feedback residual are stateful),
//     so each session owns one compressor and serializes calls on a mutex;
//     concurrency comes from running many sessions, which is safe because
//     the hot paths underneath share only race-safe state (the pool arenas
//     and read-only codec registries — locked in by the compress package's
//     -race stress suite).
//
//   - Bounded allocation. Request bodies, float conversion scratch and
//     response buffers all come from internal/pool, so steady-state request
//     handling performs a small constant number of heap allocations
//     (guarded by AllocsPerRun in alloc_test.go) regardless of payload size.
//
//   - Backpressure, not queueing. The admission layer caps live sessions
//     and in-flight requests globally and per tenant; excess load is shed
//     immediately with 429 + Retry-After instead of growing latency until
//     clients time out.
//
// The HTTP surface (see cmd/compso-serve and the README "Serving" section):
//
//	POST   /v1/sessions                  create a session (JSON config)
//	GET    /v1/sessions/{id}             session info + stats
//	DELETE /v1/sessions/{id}             close the session
//	POST   /v1/sessions/{id}/compress    float32 LE body -> compressed blob
//	POST   /v1/sessions/{id}/decompress  blob body -> float32 LE (or JSON)
//	GET    /metrics                      obs metrics snapshot (JSON)
//	GET    /healthz                      liveness + admission state
package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"compso/internal/obs"
)

// Config tunes the server. The zero value gets sensible defaults from
// (\*Config).withDefaults.
type Config struct {
	// MaxSessions caps live sessions across all tenants (default 4096).
	MaxSessions int
	// MaxTenantSessions caps live sessions per tenant (default MaxSessions).
	MaxTenantSessions int
	// MaxInflight caps concurrent data-plane requests across all tenants
	// (default 8×GOMAXPROCS).
	MaxInflight int
	// MaxTenantInflight caps concurrent data-plane requests per tenant
	// (default MaxInflight).
	MaxTenantInflight int
	// MaxElements caps the per-request gradient length (default 1<<24,
	// matching the pool's largest size class).
	MaxElements int
	// MaxTenants caps the number of distinct tenant names the server will
	// materialize state (admission ledgers, metric series) for; session
	// creates naming a new tenant beyond the cap are shed with 429. Tenant
	// names are unauthenticated client input, so without a ceiling they are
	// a slow memory-exhaustion vector (default MaxSessions).
	MaxTenants int
	// RetryAfter is the client backoff advertised on shed requests
	// (default 1s; rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// Obs receives all server metrics. Nil gets a fresh recorder (the
	// /metrics endpoint always has something to serve).
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.MaxTenantSessions <= 0 {
		c.MaxTenantSessions = c.MaxSessions
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8 * runtime.GOMAXPROCS(0)
	}
	if c.MaxTenantInflight <= 0 {
		c.MaxTenantInflight = c.MaxInflight
	}
	if c.MaxElements <= 0 {
		c.MaxElements = 1 << 24
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = c.MaxSessions
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.NewRecorder()
	}
	return c
}

// Server is the multi-tenant compression service. Create with New, mount
// Handler on an http.Server, and drain with Shutdown.
type Server struct {
	cfg Config
	obs *obs.Recorder
	adm *admission
	mux *http.ServeMux

	mu       sync.RWMutex
	sessions map[string]*Session
	nextID   atomic.Int64

	// gate serializes the draining flag against in-flight accounting so
	// Shutdown's Wait cannot race a late Add.
	gateMu   sync.Mutex
	draining bool
	inflight sync.WaitGroup

	m serverMetrics
}

// New returns a ready server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		obs:      cfg.Obs,
		sessions: make(map[string]*Session),
	}
	s.adm = newAdmission(cfg)
	s.m = newServerMetrics(cfg.Obs)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the server's HTTP handler (also usable directly in-process
// by the load generator and the benchmark — no TCP required).
func (s *Server) Handler() http.Handler { return s.mux }

// Obs exposes the metrics recorder backing /metrics.
func (s *Server) Obs() *obs.Recorder { return s.obs }

// enter registers a data-plane request; it returns false once draining has
// begun, in which case the caller must answer 503 without touching the
// WaitGroup.
func (s *Server) enter() bool {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// leave balances a successful enter.
func (s *Server) leave() { s.inflight.Done() }

// Draining reports whether Shutdown has been initiated.
func (s *Server) Draining() bool {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	return s.draining
}

// Shutdown stops admitting data-plane requests and waits for the in-flight
// ones to finish (or ctx to expire). Sessions are then closed so their
// state is released. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gateMu.Lock()
	s.draining = true
	s.gateMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}

	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.closeSession(id)
	}
	return nil
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// lookupSession returns the live session with the given id.
func (s *Server) lookupSession(id string) (*Session, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// pinSession looks up the session and, under the same read lock, marks it
// in-flight and fresh. ReapIdle decides under the write lock, so a request
// that has pinned can never have its session reaped out from under it
// between lookup and first use; the caller must sess.inflight.Add(-1) when
// done.
func (s *Server) pinSession(id string) (*Session, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, false
	}
	sess.inflight.Add(1)
	sess.touch()
	return sess, true
}

// registerSession admits and installs a new session built by build. The
// admission slot is taken before build runs and released if it fails.
func (s *Server) registerSession(tenant string, build func(id string) (*Session, error)) (*Session, error) {
	ts, ok := s.adm.tenant(tenant)
	if !ok {
		s.m.shedSessions.Inc()
		return nil, errShed
	}
	if !s.adm.acquireSession(ts) {
		s.m.shedSessions.Inc()
		ts.m.shed.Inc()
		return nil, errShed
	}
	id := "s-" + strconv.FormatInt(s.nextID.Add(1), 10)
	sess, err := build(id)
	if err != nil {
		s.adm.releaseSession(ts)
		return nil, err
	}
	sess.ts = ts
	s.mu.Lock()
	s.sessions[id] = sess
	n := len(s.sessions)
	s.mu.Unlock()
	s.m.sessionsLive.Set(float64(n))
	s.m.sessionsCreated.Inc()
	return sess, nil
}

// closeSession removes and closes a session; it reports whether the id was
// live.
func (s *Server) closeSession(id string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	n := len(s.sessions)
	s.mu.Unlock()
	if !ok {
		return false
	}
	sess.close()
	s.adm.releaseSession(sess.ts)
	s.m.sessionsLive.Set(float64(n))
	return true
}

// ReapIdle closes sessions idle for longer than olderThan and returns how
// many it reaped. A dead client that never sent DELETE must not pin its
// admission slot (or its error-feedback residual) forever; cmd/compso-serve
// calls this on a ticker.
func (s *Server) ReapIdle(olderThan time.Duration) int {
	if olderThan <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-olderThan).UnixNano()
	// The write lock excludes pinSession, making the idleness check and the
	// map removal one atomic decision: a request that already pinned shows
	// inflight > 0 here, and one that has not yet pinned will miss the map
	// and get a clean 404 — never a session closed mid-request.
	s.mu.Lock()
	var idle []*Session
	for id, sess := range s.sessions {
		if sess.lastUsed.Load() < cutoff && sess.inflight.Load() == 0 {
			delete(s.sessions, id)
			idle = append(idle, sess)
		}
	}
	n := len(s.sessions)
	s.mu.Unlock()
	for _, sess := range idle {
		sess.close()
		s.adm.releaseSession(sess.ts)
		s.m.sessionsReaped.Inc()
	}
	if len(idle) > 0 {
		s.m.sessionsLive.Set(float64(n))
	}
	return len(idle)
}
