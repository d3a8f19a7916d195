package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"compso/internal/compress"
	"compso/internal/encoding"
	"compso/internal/pool"
)

// Media types of the binary data plane. Compression accepts raw
// little-endian float32 gradients and returns a self-describing compressed
// blob; decompression is the inverse. application/octet-stream is accepted
// everywhere a compso type is.
const (
	ctFloat32 = "application/x-compso-float32"
	ctBlob    = "application/x-compso-blob"
)

// Sentinel errors of the request path; the HTTP layer maps them to status
// codes (errShed lives in admission.go).
var (
	errBadRequest    = errors.New("serve: bad request")
	errSessionClosed = errors.New("serve: session closed")
)

// routes mounts the v1 API on the server's mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sessions", s.recovered(s.handleCreateSession))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.recovered(s.handleGetSession))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.recovered(s.handleDeleteSession))
	s.mux.HandleFunc("POST /v1/sessions/{id}/compress", s.recovered(s.handleCompress))
	s.mux.HandleFunc("POST /v1/sessions/{id}/decompress", s.recovered(s.handleDecompress))
	s.mux.HandleFunc("GET /v1/codecs", s.recovered(s.handleCodecs))
	s.mux.HandleFunc("GET /metrics", s.recovered(s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.recovered(s.handleHealthz))
}

// recovered converts handler panics into 500s so one malformed request can
// never take the whole service down; the serve/panics counter makes any
// occurrence visible (the chaos suite asserts it stays zero).
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Inc()
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		h(w, r)
	}
}

// writeError emits a JSON error body. It is best-effort: if the handler
// already wrote a response, the status line is gone and this is a no-op at
// the protocol level.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// retryAfterValue renders the configured backoff in whole seconds (minimum
// 1) for the Retry-After header.
func (s *Server) retryAfterValue() string {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// shed writes the backpressure response: 429 with Retry-After, never a
// hang. Clients back off and retry; the load generator's overload test
// asserts this is the failure mode under deliberate over-subscription.
func (s *Server) shed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", s.retryAfterValue())
	writeError(w, http.StatusTooManyRequests, msg)
}

// handleCreateSession builds a session from the JSON config, subject to
// session admission.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	defer s.leave()
	var cfg SessionConfig
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if err := dec.Decode(&cfg); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad session config: "+err.Error())
		return
	}
	if err := cfg.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess, err := s.registerSession(cfg.Tenant, func(id string) (*Session, error) {
		return newSession(id, cfg)
	})
	if errors.Is(err, errShed) {
		s.shed(w, "session admission limit reached")
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(sess.info())
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(sess.info())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if !s.closeSession(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleCodecs lists the negotiable codec back-ends and compressor
// families.
func (s *Server) handleCodecs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string][]string{
		"compressors": {"compso", "qsgd", "sz", "cocktail"},
		"codecs":      encoding.Names(),
	})
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	s.dataPlane(w, r, (*Server).doCompress)
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	s.dataPlane(w, r, (*Server).doDecompress)
}

// dataPlane is the shared admission/draining/accounting shell around the
// two hot handlers.
func (s *Server) dataPlane(w http.ResponseWriter, r *http.Request, op func(*Server, http.ResponseWriter, *http.Request, *Session)) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	defer s.leave()
	sess, ok := s.pinSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	defer sess.inflight.Add(-1)
	ts := sess.ts
	if !s.adm.acquireRequest(ts) {
		s.m.shedRequests.Inc()
		ts.m.shed.Inc()
		s.shed(w, "in-flight request limit reached")
		return
	}
	defer s.adm.releaseRequest(ts)
	s.m.inflight.Set(float64(s.adm.Inflight()))
	s.m.requests.Inc()
	op(s, w, r, sess)
}

// doCompress reads a float32 gradient, compresses it under the session's
// codec config (with optional per-request codec negotiation) and streams
// the blob back.
func (s *Server) doCompress(w http.ResponseWriter, r *http.Request, sess *Session) {
	ts := sess.ts
	start := time.Now()
	body, status, err := readPooledBody(r, 4*s.cfg.MaxElements)
	if err != nil {
		ts.m.errors.Inc()
		s.m.errors.Inc()
		writeError(w, status, err.Error())
		return
	}
	defer pool.PutBytes(body)
	if len(body) == 0 || len(body)%4 != 0 {
		ts.m.errors.Inc()
		s.m.errors.Inc()
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("body must be a non-empty multiple of 4 bytes of little-endian float32, got %d", len(body)))
		return
	}
	n := len(body) / 4
	floats := pool.F32(n)
	defer pool.PutF32(floats)
	bytesToF32(floats, body)

	blob, err := sess.compress(floats, negotiatedCodec(r))
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, errBadRequest):
			code = http.StatusBadRequest
		case errors.Is(err, errSessionClosed):
			code = http.StatusGone
		}
		ts.m.errors.Inc()
		s.m.errors.Inc()
		writeError(w, code, err.Error())
		return
	}
	sess.bytesIn.Add(int64(len(body)))
	sess.bytesOut.Add(int64(len(blob)))
	ts.m.compressCalls.Inc()
	ts.m.bytesIn.Add(float64(len(body)))
	ts.m.bytesOut.Add(float64(len(blob)))
	ts.m.ratio.Observe(compress.Ratio(n, blob))

	h := w.Header()
	h.Set("Content-Type", ctBlob)
	h.Set("Content-Length", strconv.Itoa(len(blob)))
	h.Set("X-Compso-Elements", strconv.Itoa(n))
	_, _ = w.Write(blob)
	ts.m.compressLat.Observe(time.Since(start).Seconds())
}

// doDecompress reads a compressed blob and streams the restored float32
// gradient back (or a JSON array when the client asks for it). Corrupt
// blobs — truncations, bit flips, garbage — are client errors: the decoders
// validate their input and the response is a clean 400, never a panic.
func (s *Server) doDecompress(w http.ResponseWriter, r *http.Request, sess *Session) {
	ts := sess.ts
	start := time.Now()
	body, status, err := readPooledBody(r, 4*s.cfg.MaxElements+1024)
	if err != nil {
		ts.m.errors.Inc()
		s.m.errors.Inc()
		writeError(w, status, err.Error())
		return
	}
	defer pool.PutBytes(body)

	// The cap holds on the blob's element-count header before Decompress
	// runs. Decompress sizes its output from that count and every buffer
	// inside it from the output (or from the body, itself capped), so a
	// blob under the cap cannot make a request allocate past it, whatever
	// its inner streams declare.
	n, err := compress.PeekElements(body)
	if err != nil {
		ts.m.errors.Inc()
		s.m.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if n > s.cfg.MaxElements {
		ts.m.errors.Inc()
		s.m.errors.Inc()
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("blob declares %d elements, above the %d cap", n, s.cfg.MaxElements))
		return
	}

	vals, err := sess.decompress(body)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, compress.ErrCorrupt), errors.Is(err, encoding.ErrCorrupt):
			code = http.StatusBadRequest
		case errors.Is(err, errSessionClosed):
			code = http.StatusGone
		}
		ts.m.errors.Inc()
		s.m.errors.Inc()
		writeError(w, code, err.Error())
		return
	}
	ts.m.decompressCalls.Inc()
	ts.m.bytesIn.Add(float64(len(body)))

	if wantsJSON(r) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(vals)
		ts.m.decompressLat.Observe(time.Since(start).Seconds())
		return
	}
	out := pool.Bytes(4 * len(vals))
	defer pool.PutBytes(out)
	f32ToBytes(out, vals)
	h := w.Header()
	h.Set("Content-Type", ctFloat32)
	h.Set("Content-Length", strconv.Itoa(len(out)))
	h.Set("X-Compso-Elements", strconv.Itoa(len(vals)))
	_, _ = w.Write(out)
	ts.m.bytesOut.Add(float64(len(out)))
	ts.m.decompressLat.Observe(time.Since(start).Seconds())
}

// negotiatedCodec extracts a per-request lossless-codec override: the
// X-Compso-Codec header wins, then a ";codec=" parameter on an Accept
// media type (e.g. "Accept: application/x-compso-blob;codec=zstd").
func negotiatedCodec(r *http.Request) string {
	if c := r.Header.Get("X-Compso-Codec"); c != "" {
		return c
	}
	accept := r.Header.Get("Accept")
	if accept == "" || !strings.Contains(accept, "codec=") {
		return ""
	}
	for _, part := range strings.Split(accept, ",") {
		if _, params, err := mime.ParseMediaType(strings.TrimSpace(part)); err == nil {
			if c := params["codec"]; c != "" {
				return c
			}
		}
	}
	return ""
}

// wantsJSON reports whether the client asked for a JSON decompress
// response.
func wantsJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// readPooledBody reads the full request body into a pooled buffer; the
// caller owns it and must pool.PutBytes it. The returned status code is
// meaningful only on error.
func readPooledBody(r *http.Request, maxBytes int) ([]byte, int, error) {
	if r.ContentLength > int64(maxBytes) {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body %d bytes exceeds the %d-byte cap", r.ContentLength, maxBytes)
	}
	if r.ContentLength >= 0 {
		n := int(r.ContentLength)
		buf := pool.Bytes(n)
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			pool.PutBytes(buf)
			return nil, http.StatusBadRequest, fmt.Errorf("short body: %w", err)
		}
		return buf, 0, nil
	}
	// Unknown length (chunked): grow through pooled buffers. Capacity growth
	// stops at maxBytes+1 — one byte of headroom past the cap — so a body of
	// exactly maxBytes reads through to its terminal EOF instead of being
	// rejected at a power-of-two boundary, while anything longer fills the
	// headroom and is rejected without further growth.
	buf := pool.Bytes(64 << 10)[:0]
	for {
		if len(buf) == cap(buf) {
			if len(buf) > maxBytes {
				pool.PutBytes(buf)
				return nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("body exceeds the %d-byte cap", maxBytes)
			}
			grown := 2 * cap(buf)
			if grown > maxBytes+1 {
				grown = maxBytes + 1
			}
			next := pool.Bytes(grown)[:len(buf)]
			copy(next, buf)
			pool.PutBytes(buf)
			buf = next
		}
		m, err := r.Body.Read(buf[len(buf):cap(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			if len(buf) > maxBytes {
				pool.PutBytes(buf)
				return nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("body exceeds the %d-byte cap", maxBytes)
			}
			return buf, 0, nil
		}
		if err != nil {
			pool.PutBytes(buf)
			return nil, http.StatusBadRequest, fmt.Errorf("read body: %w", err)
		}
	}
}

// bytesToF32 decodes little-endian float32s; len(dst)*4 == len(src).
func bytesToF32(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// f32ToBytes encodes little-endian float32s; len(dst) == 4*len(src).
func f32ToBytes(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}
