package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"compso/internal/compress"
	internalcompso "compso/internal/compso"
	"compso/internal/opt"
	"compso/internal/pool"
	"compso/internal/serve"
	"compso/internal/xrand"
)

// ---- helpers ----

func newServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	return serve.New(cfg)
}

// do executes one request against the handler in-process.
func do(t *testing.T, s *serve.Server, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// createSession posts the config and returns the session id.
func createSession(t *testing.T, s *serve.Server, cfg serve.SessionConfig) string {
	t.Helper()
	body, _ := json.Marshal(cfg)
	rec := do(t, s, "POST", "/v1/sessions", body, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", rec.Code, rec.Body)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

func grad(n int, seed int64) []float32 {
	g := make([]float32, n)
	xrand.KFACGradient(xrand.NewSeeded(seed), g, 1.0)
	return g
}

func f32Bytes(src []float32) []byte {
	b := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func bytesF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// ---- lifecycle: round-trip bit-identity vs direct library calls ----

func TestRoundTripBitIdenticalToLibrary(t *testing.T) {
	s := newServer(t, serve.Config{})
	const seed = 42
	id := createSession(t, s, serve.SessionConfig{Tenant: "acme", Seed: seed})

	// The reference: the exact construction the server performs, driven
	// directly. Sequential calls consume the same SR stream, so the whole
	// request sequence must match bit-for-bit.
	ref := compress.NewCOMPSO(seed)

	for call := 0; call < 3; call++ {
		g := grad(4096+call*777, int64(call+1))
		rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(g),
			map[string]string{"Content-Type": "application/x-compso-float32"})
		if rec.Code != http.StatusOK {
			t.Fatalf("compress call %d: status %d: %s", call, rec.Code, rec.Body)
		}
		want, err := ref.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("call %d: served blob differs from direct library blob (%d vs %d bytes)",
				call, rec.Body.Len(), len(want))
		}

		dec := do(t, s, "POST", "/v1/sessions/"+id+"/decompress", rec.Body.Bytes(),
			map[string]string{"Content-Type": "application/x-compso-blob"})
		if dec.Code != http.StatusOK {
			t.Fatalf("decompress call %d: status %d: %s", call, dec.Code, dec.Body)
		}
		wantVals, err := ref.Decompress(want)
		if err != nil {
			t.Fatal(err)
		}
		gotVals := bytesF32(dec.Body.Bytes())
		if len(gotVals) != len(wantVals) {
			t.Fatalf("call %d: decoded %d values, want %d", call, len(gotVals), len(wantVals))
		}
		for i := range gotVals {
			if math.Float32bits(gotVals[i]) != math.Float32bits(wantVals[i]) {
				t.Fatalf("call %d: value %d = %x, want %x", call, i,
					math.Float32bits(gotVals[i]), math.Float32bits(wantVals[i]))
			}
		}
	}
}

func TestAdaptiveSessionMatchesController(t *testing.T) {
	s := newServer(t, serve.Config{})
	const seed, total, drop = 7, 6, 3
	id := createSession(t, s, serve.SessionConfig{
		Seed:  seed,
		Adapt: &serve.AdaptConfig{Schedule: "step", TotalIters: total, FirstDrop: drop},
	})
	ref := compress.NewCOMPSO(seed)
	ctrl := internalcompso.DefaultController(&opt.StepLR{Drops: []int{drop}}, total)
	g := grad(2048, 5)
	for call := 0; call < total; call++ {
		rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(g), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("call %d: status %d: %s", call, rec.Code, rec.Body)
		}
		ctrl.Apply(call, ref)
		want, err := ref.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("adaptive call %d: served blob differs from controller-applied library blob", call)
		}
	}
}

func TestErrorFeedbackSession(t *testing.T) {
	s := newServer(t, serve.Config{})
	id := createSession(t, s, serve.SessionConfig{Seed: 3, ErrorFeedback: true})
	g := grad(1024, 9)
	body := f32Bytes(g)
	var prev []byte
	for call := 0; call < 3; call++ {
		rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("EF call %d: status %d: %s", call, rec.Code, rec.Body)
		}
		blob := append([]byte(nil), rec.Body.Bytes()...)
		if prev != nil && bytes.Equal(prev, blob) {
			t.Fatalf("EF call %d: blob identical to previous call — residual not applied", call)
		}
		prev = blob
		dec := do(t, s, "POST", "/v1/sessions/"+id+"/decompress", blob, nil)
		if dec.Code != http.StatusOK {
			t.Fatalf("EF decompress %d: status %d", call, dec.Code)
		}
	}
	// EF sessions require stable lengths; a different length is the client's
	// mistake and must be a 400, never a 500.
	rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(grad(512, 1)), nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("EF length mismatch: status %d, want 400", rec.Code)
	}
}

// ---- admission control ----

func TestSessionLimitShedsWith429(t *testing.T) {
	s := newServer(t, serve.Config{MaxSessions: 2})
	createSession(t, s, serve.SessionConfig{Tenant: "a"})
	createSession(t, s, serve.SessionConfig{Tenant: "b"})
	body, _ := json.Marshal(serve.SessionConfig{Tenant: "c"})
	rec := do(t, s, "POST", "/v1/sessions", body, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third session: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
}

func TestTenantSessionLimitIsIndependent(t *testing.T) {
	s := newServer(t, serve.Config{MaxSessions: 10, MaxTenantSessions: 1})
	createSession(t, s, serve.SessionConfig{Tenant: "a"})
	body, _ := json.Marshal(serve.SessionConfig{Tenant: "a"})
	if rec := do(t, s, "POST", "/v1/sessions", body, nil); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second session for tenant a: status %d, want 429", rec.Code)
	}
	// Another tenant still has room.
	createSession(t, s, serve.SessionConfig{Tenant: "b"})
}

// blockingRequest starts a compress request whose chunked body blocks until
// release is called; it occupies one in-flight admission slot meanwhile.
func blockingRequest(t *testing.T, s *serve.Server, id string) (release func(), done <-chan *httptest.ResponseRecorder) {
	t.Helper()
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/v1/sessions/"+id+"/compress", pr)
	req.ContentLength = -1 // force the chunked read path
	ch := make(chan *httptest.ResponseRecorder, 1)
	started := make(chan struct{})
	go func() {
		rec := httptest.NewRecorder()
		close(started)
		s.Handler().ServeHTTP(rec, req)
		ch <- rec
	}()
	<-started
	// Hand the handler its first bytes so it is provably inside the body
	// read (and holding its admission slot) before we return.
	if _, err := pw.Write(f32Bytes(grad(16, 1))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	var once sync.Once
	return func() { once.Do(func() { pw.Close() }) }, ch
}

func TestInflightLimitShedsWith429(t *testing.T) {
	s := newServer(t, serve.Config{MaxInflight: 1})
	id := createSession(t, s, serve.SessionConfig{Tenant: "a"})
	release, done := blockingRequest(t, s, id)
	defer release()

	rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(grad(64, 2)), nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second in-flight request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	release()
	first := <-done
	if first.Code != http.StatusOK {
		t.Fatalf("blocked request finished with %d: %s", first.Code, first.Body)
	}
	// Slot free again: the retry succeeds.
	rec = do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(grad(64, 2)), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release request: status %d", rec.Code)
	}
}

// ---- graceful shutdown ----

func TestShutdownDrainsInflight(t *testing.T) {
	s := newServer(t, serve.Config{})
	id := createSession(t, s, serve.SessionConfig{Tenant: "a"})
	release, done := blockingRequest(t, s, id)
	defer release()

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(t.Context()) }()

	// Draining begins promptly: new work is refused with 503.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(grad(64, 2)), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", rec.Code)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a request was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	in := <-done
	if in.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain finished with %d: %s", in.Code, in.Body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := s.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived shutdown", n)
	}
}

// ---- protocol edges ----

func TestUnknownSessionIs404(t *testing.T) {
	s := newServer(t, serve.Config{})
	rec := do(t, s, "POST", "/v1/sessions/s-999/compress", f32Bytes(grad(8, 1)), nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}

func TestOddLengthBodyIs400(t *testing.T) {
	s := newServer(t, serve.Config{})
	id := createSession(t, s, serve.SessionConfig{})
	rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", []byte{1, 2, 3}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	s := newServer(t, serve.Config{MaxElements: 16})
	id := createSession(t, s, serve.SessionConfig{})
	rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(grad(64, 1)), nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}

// TestDecompressOversizedHeaderIs400 locks in the pre-decode element cap: a
// tiny blob whose header declares a huge element count must be rejected with
// 400 before the decoder allocates output sized by the untrusted header.
func TestDecompressOversizedHeaderIs400(t *testing.T) {
	s := newServer(t, serve.Config{MaxElements: 1 << 10})
	id := createSession(t, s, serve.SessionConfig{})

	// Magic 'O' (COMPSO) + uvarint element count claiming ~1<<30 elements
	// (a 4GB float32 vector) in a blob a handful of bytes long.
	blob := append([]byte{0x4f}, binary.AppendUvarint(nil, 1<<30)...)
	blob = append(blob, make([]byte, 32)...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := do(t, s, "POST", "/v1/sessions/"+id+"/decompress", blob, nil)
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized header: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "cap") {
		t.Fatalf("oversized header: error body does not mention the cap: %s", rec.Body)
	}
	// The request must not have allocated anywhere near what the header
	// demanded (4GB output + 128MB bitmap); 16MB of slack covers test noise.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 16<<20 {
		t.Fatalf("oversized header allocated %d bytes before rejection", delta)
	}

	// Garbage magic bytes are an equally clean 400.
	rec = do(t, s, "POST", "/v1/sessions/"+id+"/decompress", []byte{0xFF, 0x01, 0x02}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad magic: status %d, want 400", rec.Code)
	}
}

// TestDecompressHostileStreamIs400 posts a 41-byte COMPSO blob that passes
// the element cap (64 elements) but carries a Bitcomp plane declaring 2^30
// bytes. The decoder must reject it with a 400 without allocating for the
// declared length.
func TestDecompressHostileStreamIs400(t *testing.T) {
	s := newServer(t, serve.Config{MaxElements: 1 << 10})
	id := createSession(t, s, serve.SessionConfig{})

	plane := append(binary.AppendUvarint(nil, 1<<30), make([]byte, 8)...)
	blob := []byte{0x4f, 64, 0, 1, 0}                                     // magic 'O', 64 elements, no filter, Bitcomp, byte planes
	blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(4e-3)) // filter bound
	blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(4e-3)) // quantizer bound
	blob = append(blob, 0xBB, 64, 0xBB, 0, 1, 0xBB, byte(len(plane)))     // 64 kept, no bitmap, one plane
	blob = append(blob, plane...)
	if len(blob) != 41 {
		t.Fatalf("blob is %d bytes, want 41", len(blob))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := do(t, s, "POST", "/v1/sessions/"+id+"/decompress", blob, nil)
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusBadRequest {
		t.Fatalf("hostile stream: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("hostile stream allocated %d bytes", delta)
	}
}

// TestTenantCapShedsNewTenants locks in the distinct-tenant ceiling: random
// tenant names must not grow server state without bound.
func TestTenantCapShedsNewTenants(t *testing.T) {
	s := newServer(t, serve.Config{MaxTenants: 2})
	createSession(t, s, serve.SessionConfig{Tenant: "a"})
	createSession(t, s, serve.SessionConfig{Tenant: "b"})

	body, _ := json.Marshal(serve.SessionConfig{Tenant: "c"})
	rec := do(t, s, "POST", "/v1/sessions", body, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third tenant: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("tenant shed without Retry-After")
	}
	// Known tenants are unaffected by the cap.
	createSession(t, s, serve.SessionConfig{Tenant: "a"})

	// The shed tenant must not have gained metric series.
	m := do(t, s, "GET", "/metrics", nil, nil)
	if strings.Contains(m.Body.String(), "serve/tenant/c/") {
		t.Fatal("shed tenant still materialized metric series")
	}
}

// TestChunkedBodyExactlyAtCapAccepted covers the growth-boundary edge: a
// chunked body of exactly maxBytes (here 128KiB, a power-of-two boundary of
// the 64KiB starting buffer) must be accepted, matching the Content-Length
// path.
func TestChunkedBodyExactlyAtCapAccepted(t *testing.T) {
	const maxElements = 32 << 10 // maxBytes = 4*maxElements = 128KiB
	s := newServer(t, serve.Config{MaxElements: maxElements})
	id := createSession(t, s, serve.SessionConfig{})

	post := func(n int) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/sessions/"+id+"/compress",
			bytes.NewReader(f32Bytes(grad(n, 1))))
		req.ContentLength = -1 // force the chunked read path
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	if rec := post(maxElements); rec.Code != http.StatusOK {
		t.Fatalf("chunked body of exactly maxBytes: status %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := post(maxElements + 1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body one element over: status %d, want 413", rec.Code)
	}
}

func TestCodecNegotiation(t *testing.T) {
	s := newServer(t, serve.Config{})
	id := createSession(t, s, serve.SessionConfig{Seed: 11})
	g := grad(2048, 3)

	for _, hdr := range []map[string]string{
		{"X-Compso-Codec": "zstd"},
		{"Accept": "application/x-compso-blob;codec=Zstd"},
	} {
		rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(g), hdr)
		if rec.Code != http.StatusOK {
			t.Fatalf("negotiated compress (%v): status %d: %s", hdr, rec.Code, rec.Body)
		}
		// The blob self-describes its codec; the round trip must decode.
		dec := do(t, s, "POST", "/v1/sessions/"+id+"/decompress", rec.Body.Bytes(), nil)
		if dec.Code != http.StatusOK {
			t.Fatalf("negotiated decompress (%v): status %d", hdr, dec.Code)
		}
		if len(dec.Body.Bytes()) != 4*len(g) {
			t.Fatalf("negotiated round trip (%v): %d bytes, want %d", hdr, dec.Body.Len(), 4*len(g))
		}
	}

	rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(g),
		map[string]string{"X-Compso-Codec": "no-such-codec"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown codec: status %d, want 400", rec.Code)
	}
}

func TestDecompressJSONNegotiation(t *testing.T) {
	s := newServer(t, serve.Config{})
	id := createSession(t, s, serve.SessionConfig{Seed: 5})
	g := grad(64, 2)
	rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(g), nil)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	dec := do(t, s, "POST", "/v1/sessions/"+id+"/decompress", rec.Body.Bytes(),
		map[string]string{"Accept": "application/json"})
	if dec.Code != http.StatusOK {
		t.Fatalf("json decompress: status %d", dec.Code)
	}
	var vals []float32
	if err := json.Unmarshal(dec.Body.Bytes(), &vals); err != nil {
		t.Fatalf("json decompress: %v", err)
	}
	if len(vals) != len(g) {
		t.Fatalf("json decompress: %d values, want %d", len(vals), len(g))
	}
}

func TestSessionInfoAndDelete(t *testing.T) {
	s := newServer(t, serve.Config{})
	id := createSession(t, s, serve.SessionConfig{Tenant: "acme", Seed: 1})
	do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(grad(256, 1)), nil)

	rec := do(t, s, "GET", "/v1/sessions/"+id, nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get session: %d", rec.Code)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tenant != "acme" || info.CompressCalls != 1 || info.BytesIn != 1024 {
		t.Fatalf("unexpected info: %+v", info)
	}

	if rec := do(t, s, "DELETE", "/v1/sessions/"+id, nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/sessions/"+id, nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("second delete: %d, want 404", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(grad(8, 1)), nil); rec.Code != http.StatusNotFound {
		t.Fatalf("compress after delete: %d, want 404", rec.Code)
	}
}

func TestReapIdleClosesDeadSessions(t *testing.T) {
	s := newServer(t, serve.Config{})
	createSession(t, s, serve.SessionConfig{Tenant: "dead"})
	time.Sleep(20 * time.Millisecond)
	if n := s.ReapIdle(time.Millisecond); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if n := s.SessionCount(); n != 0 {
		t.Fatalf("%d sessions left", n)
	}
}

// ---- metrics + health ----

func TestMetricsAndHealth(t *testing.T) {
	s := newServer(t, serve.Config{})
	id := createSession(t, s, serve.SessionConfig{Tenant: "acme"})
	g := grad(1024, 4)
	rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(g), nil)
	do(t, s, "POST", "/v1/sessions/"+id+"/decompress", rec.Body.Bytes(), nil)

	m := do(t, s, "GET", "/metrics", nil, nil)
	if m.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", m.Code)
	}
	var payload struct {
		Counters   map[string]float64 `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(m.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	if payload.Counters["serve/requests"] != 2 {
		t.Fatalf("serve/requests = %g, want 2", payload.Counters["serve/requests"])
	}
	if payload.Counters["serve/tenant/acme/compress/calls"] != 1 {
		t.Fatalf("tenant compress calls = %g, want 1", payload.Counters["serve/tenant/acme/compress/calls"])
	}
	if payload.Counters["serve/tenant/acme/bytes_in"] == 0 {
		t.Fatal("tenant bytes_in missing")
	}
	if h, ok := payload.Histograms["serve/tenant/acme/compress/latency_s"]; !ok || h.Count != 1 {
		t.Fatalf("latency histogram missing or empty: %+v", payload.Histograms)
	}
	if h, ok := payload.Histograms["serve/tenant/acme/compress/ratio"]; !ok || h.Count != 1 {
		t.Fatal("ratio histogram missing")
	}

	hrec := do(t, s, "GET", "/healthz", nil, nil)
	if hrec.Code != http.StatusOK || !strings.Contains(hrec.Body.String(), `"ok"`) {
		t.Fatalf("/healthz: %d %s", hrec.Code, hrec.Body)
	}
}

func TestShedRequestsAreCounted(t *testing.T) {
	s := newServer(t, serve.Config{MaxSessions: 1})
	createSession(t, s, serve.SessionConfig{Tenant: "a"})
	body, _ := json.Marshal(serve.SessionConfig{Tenant: "b"})
	do(t, s, "POST", "/v1/sessions", body, nil) // shed
	m := do(t, s, "GET", "/metrics", nil, nil)
	var payload struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(m.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Counters["serve/shed/sessions"] != 1 {
		t.Fatalf("serve/shed/sessions = %g, want 1", payload.Counters["serve/shed/sessions"])
	}
}

// ---- pool integrity: dead sessions leak nothing ----

func TestNoPooledBufferLeaksAcrossSessionLifecycle(t *testing.T) {
	pool.SetDebug(true)
	defer pool.SetDebug(false)

	s := newServer(t, serve.Config{})
	base := pool.Stats().Live
	for i := 0; i < 5; i++ {
		id := createSession(t, s, serve.SessionConfig{Tenant: fmt.Sprintf("t%d", i), Seed: int64(i)})
		g := grad(4096, int64(i+1))
		rec := do(t, s, "POST", "/v1/sessions/"+id+"/compress", f32Bytes(g), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("compress: %d", rec.Code)
		}
		dec := do(t, s, "POST", "/v1/sessions/"+id+"/decompress", rec.Body.Bytes(), nil)
		if dec.Code != http.StatusOK {
			t.Fatalf("decompress: %d", dec.Code)
		}
		if rec := do(t, s, "DELETE", "/v1/sessions/"+id, nil, nil); rec.Code != http.StatusNoContent {
			t.Fatalf("delete: %d", rec.Code)
		}
	}
	if live := pool.Stats().Live; live != base {
		t.Fatalf("pooled buffers leaked across session lifecycles: live %d, baseline %d", live, base)
	}
}
