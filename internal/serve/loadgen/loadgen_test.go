package loadgen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"compso/internal/serve"
	"compso/internal/serve/loadgen"
)

func run(t *testing.T, srv *serve.Server, cfg loadgen.Config) *loadgen.Report {
	t.Helper()
	cfg.Transport = loadgen.HandlerTransport(srv.Handler())
	ctx, cancel := context.WithTimeout(t.Context(), 4*time.Minute)
	defer cancel()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestThousandConcurrentSessions is the headline acceptance check: ≥1000
// sessions live at once (every session runs on its own goroutine for its
// whole lifetime), heavy-tailed sizes from the modelzoo, zero request
// errors.
func TestThousandConcurrentSessions(t *testing.T) {
	const requests = 3
	// A server sized for the offered scale: the inflight cap must admit the
	// full worker count, else this becomes a backpressure test (that's
	// TestOverloadShedsNotFails) instead of a capacity test.
	srv := serve.New(serve.Config{MaxSessions: 2048, MaxInflight: 2048})
	rep := run(t, srv, loadgen.Config{
		Sessions:           1000,
		RequestsPerSession: requests,
		Tenants:            16,
		MaxElems:           1 << 14,
		Seed:               1,
		Verify:             true,
	})
	if rep.Errors > 0 {
		t.Fatalf("%d request errors: %v", rep.Errors, rep.ErrorSamples)
	}
	if rep.Exhausted > 0 {
		t.Fatalf("%d requests exhausted their retry budget", rep.Exhausted)
	}
	if want := int64(1000 * requests); rep.Requests != want {
		t.Fatalf("completed %d requests, want %d", rep.Requests, want)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions left open after the run", n)
	}
}

// TestOverloadShedsNotFails pins the backpressure contract: while the
// server's single in-flight slot is pinned by a stalled request, every
// data-plane request must be shed with 429 (which the generator retries);
// once the slot frees, the whole load completes without a single error —
// overload degrades throughput, never correctness. The pinned slot makes
// the contention deterministic on any GOMAXPROCS.
func TestOverloadShedsNotFails(t *testing.T) {
	srv := serve.New(serve.Config{
		MaxSessions: 512,
		MaxInflight: 1,
	})
	release := pinInflightSlot(t, srv)

	var rep *loadgen.Report
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep = run(t, srv, loadgen.Config{
			Sessions:           64,
			RequestsPerSession: 2,
			MaxElems:           1 << 12,
			Seed:               2,
			Verify:             true,
			RetryBudget:        100_000,
			Backoff:            100 * time.Microsecond,
		})
	}()
	// Hold the slot long enough that the workers demonstrably run into it,
	// then let the backlog drain.
	time.Sleep(100 * time.Millisecond)
	release()
	<-done

	if rep.Shed == 0 {
		t.Fatal("overloaded server shed nothing — admission control not engaging")
	}
	if rep.Errors > 0 {
		t.Fatalf("overload produced %d hard errors (want 429-and-retry only): %v",
			rep.Errors, rep.ErrorSamples)
	}
	if rep.Exhausted > 0 {
		t.Fatalf("%d requests gave up; retry budget should have absorbed the shed", rep.Exhausted)
	}
	if want := int64(64 * 2); rep.Requests != want {
		t.Fatalf("completed %d requests, want %d", rep.Requests, want)
	}
}

// pinInflightSlot occupies one data-plane admission slot with a compress
// request whose chunked body stalls until the returned release func runs.
func pinInflightSlot(t *testing.T, srv *serve.Server) (release func()) {
	t.Helper()
	h := srv.Handler()

	cfgBody, _ := json.Marshal(serve.SessionConfig{Tenant: "pin"})
	crec := httptest.NewRecorder()
	h.ServeHTTP(crec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(cfgBody)))
	if crec.Code != http.StatusCreated {
		t.Fatalf("pin session create: %d: %s", crec.Code, crec.Body)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(crec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/v1/sessions/"+info.ID+"/compress", pr)
	req.ContentLength = -1 // force the chunked read path, which blocks on the pipe
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	// Feed the handler its first bytes so it is provably inside the body
	// read — and holding the slot — before the load starts.
	if _, err := pw.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	rel := func() {
		once.Do(func() {
			pw.Close()
			<-finished
		})
	}
	t.Cleanup(rel)
	return rel
}

// TestSessionCapExhaustionIsExhaustedNotError: when the session table itself
// is too small for the offered session count, workers burn their retry
// budget and report Exhausted — not hard errors, and never a hang.
func TestSessionCapExhaustionIsExhaustedNotError(t *testing.T) {
	srv := serve.New(serve.Config{MaxSessions: 4})
	rep := run(t, srv, loadgen.Config{
		Sessions:           16,
		RequestsPerSession: 1,
		MaxElems:           1 << 10,
		Seed:               3,
		RetryBudget:        2,
		KeepSessions:       true, // sessions stay open, so the cap stays binding
	})
	if rep.Shed == 0 {
		t.Fatal("no shed observed under a binding session cap")
	}
	if rep.Exhausted == 0 {
		t.Fatal("no worker exhausted its retry budget under a binding session cap")
	}
}

// TestChaosEveryPayloadHandled sends a corrupted blob on every iteration:
// all of them must resolve to rejected (clean 400) or accepted (still
// decodable), never to transport failures or 5xx.
func TestChaosEveryPayloadHandled(t *testing.T) {
	srv := serve.New(serve.Config{})
	rep := run(t, srv, loadgen.Config{
		Sessions:           32,
		RequestsPerSession: 4,
		MaxElems:           1 << 12,
		Seed:               4,
		ChaosRate:          1,
	})
	if rep.Errors > 0 {
		t.Fatalf("chaos produced %d hard errors: %v", rep.Errors, rep.ErrorSamples)
	}
	if rep.ChaosSent == 0 {
		t.Fatal("chaos rate 1 but no corrupted payloads sent")
	}
	if rep.ChaosRejected+rep.ChaosAccepted != rep.ChaosSent {
		t.Fatalf("chaos accounting leak: sent %d, rejected %d, accepted %d",
			rep.ChaosSent, rep.ChaosRejected, rep.ChaosAccepted)
	}
	if rep.ChaosRejected == 0 {
		t.Fatal("no corrupted payload was rejected — decoder validation suspect")
	}
}

// TestReportStatistics sanity-checks the derived numbers a CI dashboard
// consumes.
func TestReportStatistics(t *testing.T) {
	srv := serve.New(serve.Config{})
	rep := run(t, srv, loadgen.Config{
		Sessions:           8,
		RequestsPerSession: 4,
		MaxElems:           1 << 12,
		Seed:               5,
		Verify:             true,
	})
	if rep.Errors > 0 {
		t.Fatalf("errors: %v", rep.ErrorSamples)
	}
	if rep.BytesUncompressed == 0 || rep.BytesCompressed == 0 {
		t.Fatal("byte accounting missing")
	}
	if rep.MeanRatio <= 1 {
		t.Fatalf("mean compression ratio %.2f, want > 1", rep.MeanRatio)
	}
	if rep.CompressMBPerSec <= 0 {
		t.Fatal("throughput not computed")
	}
	if rep.LatencyP50 <= 0 || rep.LatencyP99 < rep.LatencyP50 {
		t.Fatalf("latency percentiles inconsistent: p50=%g p99=%g", rep.LatencyP50, rep.LatencyP99)
	}
}
