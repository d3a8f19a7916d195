package serve

import (
	"errors"
	"sync"
)

// errShed marks a request rejected by admission control; the HTTP layer
// translates it to 429 + Retry-After.
var errShed = errors.New("serve: admission limit reached")

// tenantState is the per-tenant admission ledger plus the tenant's cached
// metric handles. One instance exists per tenant name for the server's
// lifetime; sessions keep a pointer so the request hot path touches only
// atomics and never a map.
type tenantState struct {
	name     string
	sessions counterCap
	inflight counterCap
	m        tenantMetrics
}

// counterCap is an atomic counter with a fixed admission ceiling.
type counterCap struct {
	mu  sync.Mutex
	cur int
	cap int
}

// tryAcquire takes one slot unless the ceiling is reached.
func (c *counterCap) tryAcquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur >= c.cap {
		return false
	}
	c.cur++
	return true
}

func (c *counterCap) release() {
	c.mu.Lock()
	if c.cur > 0 {
		c.cur--
	}
	c.mu.Unlock()
}

func (c *counterCap) load() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// admission enforces the server's load ceilings: live sessions and
// in-flight data-plane requests, both globally and per tenant. Rejections
// are immediate — the server sheds load with 429 instead of queueing, so
// overload shows up at the client as backpressure rather than timeouts.
type admission struct {
	cfg Config

	globalSessions counterCap
	globalInflight counterCap

	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newAdmission(cfg Config) *admission {
	a := &admission{cfg: cfg, tenants: make(map[string]*tenantState)}
	a.globalSessions.cap = cfg.MaxSessions
	a.globalInflight.cap = cfg.MaxInflight
	return a
}

// tenant returns the tenant's ledger, creating it on first sight. Tenant
// names are unauthenticated client input and each ledger pins metric series
// for the server's lifetime, so creation beyond cfg.MaxTenants is refused
// (second return false) and the caller sheds the request.
func (a *admission) tenant(name string) (*tenantState, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.tenants[name]
	if !ok {
		if len(a.tenants) >= a.cfg.MaxTenants {
			return nil, false
		}
		ts = &tenantState{name: name}
		ts.sessions.cap = a.cfg.MaxTenantSessions
		ts.inflight.cap = a.cfg.MaxTenantInflight
		ts.m = newTenantMetrics(a.cfg.Obs, name)
		a.tenants[name] = ts
	}
	return ts, true
}

// acquireSession claims a session slot globally and for the tenant.
func (a *admission) acquireSession(ts *tenantState) bool {
	if !a.globalSessions.tryAcquire() {
		return false
	}
	if !ts.sessions.tryAcquire() {
		a.globalSessions.release()
		return false
	}
	return true
}

func (a *admission) releaseSession(ts *tenantState) {
	ts.sessions.release()
	a.globalSessions.release()
}

// acquireRequest claims an in-flight slot globally and for the tenant.
func (a *admission) acquireRequest(ts *tenantState) bool {
	if !a.globalInflight.tryAcquire() {
		return false
	}
	if !ts.inflight.tryAcquire() {
		a.globalInflight.release()
		return false
	}
	return true
}

func (a *admission) releaseRequest(ts *tenantState) {
	ts.inflight.release()
	a.globalInflight.release()
}

// Inflight returns the current global in-flight request count.
func (a *admission) Inflight() int { return a.globalInflight.load() }
