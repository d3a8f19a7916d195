// Command compso-serve runs the COMPSO library as a long-running,
// multi-tenant compression service (see internal/serve for the API), and
// ships its own load/chaos harness.
//
// Serve (default):
//
//	compso-serve -addr :8080
//	compso-serve -addr :8080 -max-sessions 2048 -max-inflight 256 \
//	             -tenant-inflight 64 -idle-timeout 5m
//
// Load generation against a running server:
//
//	compso-serve loadgen -url http://127.0.0.1:8080 -sessions 256 \
//	             -requests 20 -model BERT-large -chaos 0.05 -json report.json
//
// Smoke mode (CI): an in-process server + loadgen burst, then /metrics
// validation — exits non-zero on any request error, retry exhaustion,
// handler panic or malformed metrics payload:
//
//	compso-serve -smoke -sessions 200 -requests 5
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"compso/internal/profile"
	"compso/internal/serve"
	"compso/internal/serve/loadgen"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		loadgenMain(os.Args[2:])
	} else {
		serveMain(os.Args[1:])
	}
	profile.Exit(0)
}

func serveMain(args []string) {
	fs := flag.NewFlagSet("compso-serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxSessions := fs.Int("max-sessions", 4096, "max live sessions across all tenants")
	maxTenantSessions := fs.Int("tenant-sessions", 0, "max live sessions per tenant (0 = global cap)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent data-plane requests (0 = 8×GOMAXPROCS)")
	maxTenantInflight := fs.Int("tenant-inflight", 0, "max concurrent requests per tenant (0 = global cap)")
	maxElements := fs.Int("max-elements", 0, "max gradient elements per request (0 = 1<<24)")
	maxTenants := fs.Int("max-tenants", 0, "max distinct tenant names (0 = max-sessions)")
	idleTimeout := fs.Duration("idle-timeout", 10*time.Minute, "reap sessions idle longer than this (0 disables)")
	reapEvery := fs.Duration("reap-interval", 30*time.Second, "idle-reaper period")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain budget")
	smoke := fs.Bool("smoke", false, "run an in-process loadgen burst and exit (CI)")
	smokeSessions := fs.Int("sessions", 200, "smoke: concurrent sessions")
	smokeRequests := fs.Int("requests", 5, "smoke: requests per session")
	smokeChaos := fs.Float64("chaos", 0.05, "smoke: fraction of decompress payloads corrupted")
	startProfiles(fs, args)

	cfg := serve.Config{
		MaxSessions:       *maxSessions,
		MaxTenantSessions: *maxTenantSessions,
		MaxInflight:       *maxInflight,
		MaxTenantInflight: *maxTenantInflight,
		MaxElements:       *maxElements,
		MaxTenants:        *maxTenants,
	}

	if *smoke {
		if err := runSmoke(cfg, *smokeSessions, *smokeRequests, *smokeChaos); err != nil {
			fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
			profile.Exit(1)
		}
		return
	}

	srv := serve.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *idleTimeout > 0 {
		go func() {
			t := time.NewTicker(*reapEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n := srv.ReapIdle(*idleTimeout); n > 0 {
						fmt.Fprintf(os.Stderr, "compso-serve: reaped %d idle sessions\n", n)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "compso-serve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "compso-serve:", err)
		profile.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "compso-serve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "compso-serve: drain:", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "compso-serve: shutdown:", err)
	}
}

func loadgenMain(args []string) {
	fs := flag.NewFlagSet("compso-serve loadgen", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "target server base URL")
	sessions := fs.Int("sessions", 64, "concurrent sessions")
	requests := fs.Int("requests", 10, "requests per session")
	tenants := fs.Int("tenants", 4, "tenant count")
	model := fs.String("model", "ResNet-50", "modelzoo profile for the size distribution")
	maxElems := fs.Int("max-elems", 1<<18, "per-request element cap")
	compressor := fs.String("compressor", "compso", "session compressor family")
	codec := fs.String("codec", "", "lossless back-end codec (empty = server default)")
	chaos := fs.Float64("chaos", 0, "fraction of decompress payloads corrupted")
	seed := fs.Int64("seed", 1, "determinism seed")
	timeout := fs.Duration("timeout", 10*time.Minute, "whole-run timeout")
	jsonOut := fs.String("json", "", "write the report as JSON to this path")
	startProfiles(fs, args)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:            *url,
		Sessions:           *sessions,
		RequestsPerSession: *requests,
		Tenants:            *tenants,
		Model:              *model,
		MaxElems:           *maxElems,
		Compressor:         *compressor,
		Codec:              *codec,
		ChaosRate:          *chaos,
		Seed:               *seed,
		Verify:             true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		profile.Exit(1)
	}
	printReport(rep)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			profile.Exit(1)
		}
	}
	if rep.Errors > 0 || rep.Exhausted > 0 {
		profile.Exit(1)
	}
}

// startProfiles adds the profiling flags to fs, parses args and starts the
// profiles they ask for.
func startProfiles(fs *flag.FlagSet, args []string) {
	prof := profile.Register(fs)
	fs.Parse(args)
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// runSmoke is the CI gate: an in-process server driven hard enough to
// exercise sessions, admission and chaos, then a /metrics sanity pass.
func runSmoke(cfg serve.Config, sessions, requests int, chaos float64) error {
	// The smoke gate is a capacity check — size the admission caps to the
	// burst unless the caller pinned them. (The overload path has its own
	// dedicated test; here shed storms on slow CI runners would only mask
	// real failures behind retry exhaustion.)
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = sessions
	}
	if cfg.MaxSessions < sessions+1 {
		cfg.MaxSessions = sessions + 1
	}
	srv := serve.New(cfg)
	transport := loadgen.HandlerTransport(srv.Handler())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Transport:          transport,
		Sessions:           sessions,
		RequestsPerSession: requests,
		ChaosRate:          chaos,
		Seed:               42,
		Verify:             true,
	})
	if err != nil {
		return err
	}
	printReport(rep)
	if rep.Errors > 0 {
		return fmt.Errorf("%d request errors (first: %v)", rep.Errors, rep.ErrorSamples)
	}
	if rep.Exhausted > 0 {
		return fmt.Errorf("%d requests exhausted their retry budget", rep.Exhausted)
	}
	if rep.Requests == 0 {
		return errors.New("no requests completed")
	}
	if chaos > 0 && rep.ChaosSent > 0 && rep.ChaosRejected == 0 {
		return errors.New("chaos payloads sent but none rejected — decoder validation suspect")
	}
	if err := validateMetrics(srv); err != nil {
		return err
	}
	if err := drainCheck(srv); err != nil {
		return err
	}
	fmt.Println("smoke: OK")
	return nil
}

// validateMetrics fetches /metrics through the handler and checks the
// payload parses and carries the series CI dashboards rely on.
func validateMetrics(srv *serve.Server) error {
	req, _ := http.NewRequest(http.MethodGet, "http://compso-serve/metrics", nil)
	rt := loadgen.HandlerTransport(srv.Handler())
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	var payload struct {
		Counters   map[string]float64         `json:"counters"`
		Gauges     map[string]float64         `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return fmt.Errorf("metrics: malformed JSON: %w", err)
	}
	if payload.Counters["serve/requests"] <= 0 {
		return errors.New("metrics: serve/requests missing or zero")
	}
	if payload.Counters["serve/panics"] != 0 {
		return fmt.Errorf("metrics: %g handler panics recorded", payload.Counters["serve/panics"])
	}
	foundTenant := false
	for name := range payload.Histograms {
		if len(name) > len("serve/tenant/") && name[:len("serve/tenant/")] == "serve/tenant/" {
			foundTenant = true
			break
		}
	}
	if !foundTenant {
		return errors.New("metrics: no per-tenant histograms present")
	}
	return nil
}

// drainCheck exercises graceful shutdown: after Shutdown, the data plane
// answers 503 and the session table is empty.
func drainCheck(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if n := srv.SessionCount(); n != 0 {
		return fmt.Errorf("drain: %d sessions survived shutdown", n)
	}
	req, _ := http.NewRequest(http.MethodPost, "http://compso-serve/v1/sessions", nil)
	resp, err := loadgen.HandlerTransport(srv.Handler()).RoundTrip(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("drain: post-shutdown create got %d, want 503", resp.StatusCode)
	}
	return nil
}

func printReport(rep *loadgen.Report) {
	fmt.Printf("loadgen: sessions=%d requests=%d errors=%d shed=%d chaos(sent/rejected/accepted)=%d/%d/%d\n",
		rep.Sessions, rep.Requests, rep.Errors, rep.Shed, rep.ChaosSent, rep.ChaosRejected, rep.ChaosAccepted)
	fmt.Printf("loadgen: %.1f MB/s uncompressed through /compress, mean ratio %.2f, wall %.2fs\n",
		rep.CompressMBPerSec, rep.MeanRatio, rep.WallSeconds)
	fmt.Printf("loadgen: latency p50=%.1fms p95=%.1fms p99=%.1fms\n",
		rep.LatencyP50*1e3, rep.LatencyP95*1e3, rep.LatencyP99*1e3)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
