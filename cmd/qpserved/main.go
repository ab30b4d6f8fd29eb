// Command qpserved is the serving daemon: it loads a domain file (LAV
// source descriptions plus statistics), builds the simulated world once,
// and serves queries over HTTP. POST /v1/query streams NDJSON events —
// the chosen plans best-first, their answers as they arrive, and a final
// summary — honoring per-request k, deadline, and algorithm/measure
// selection. Reformulation work is cached across requests keyed by the
// query's canonical form. GET /metrics and GET /healthz expose the
// instrumentation registry and drain state. Every request runs under a
// W3C-traceparent-compatible request trace: GET /debug/requests serves
// the always-on flight recorder (recent, slowest, and errored request
// traces), -trace-out exports finished traces as NDJSON for offline
// analysis with qptrace, and per-request log lines on stderr are
// correlated by trace ID. The daemon also tracks estimator calibration —
// estimate-vs-actual q-error, bias, and EWMA drift per source and plan
// series — served at GET /debug/calibration, exported per request with
// -calib-out, and scrapeable alongside every registry instrument at
// GET /metrics?format=openmetrics (OpenMetrics text exposition). The
// -slo-* flags arm an SLO monitor: rolling-window TTFA and full-session
// burn rates at GET /debug/slo, slo.* gauges on the registry, and
// tail sampling of -trace-out (only slow, errored, or budget-burning
// sessions export; others count slo.sampled_dropped).
//
// Usage:
//
//	qpserved -f domain.qp -addr :8091
//	qpserved -f domain.qp -addr 127.0.0.1:0 -seed 7 -max-inflight 16
//
// On SIGINT/SIGTERM the daemon drains: /healthz flips to 503, new
// queries are refused, and in-flight streams run to completion (bounded
// by -drain-timeout) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qporder/internal/domfile"
	"qporder/internal/obs"
	"qporder/internal/server"
	"qporder/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qpserved:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		file         = flag.String("f", "", "domain file (this or -store is required)")
		storeDir     = flag.String("store", "", "segment/catalog store directory (alternative to -f)")
		addr         = flag.String("addr", "127.0.0.1:8091", "listen address (port 0 picks a free port)")
		seed         = flag.Int64("seed", 1, "seed for the simulated world")
		bigN         = flag.Float64("N", 50000, "selectivity denominator N of the cost measures")
		maxInflight  = flag.Int("max-inflight", 8, "concurrently executing sessions")
		maxQueue     = flag.Int("max-queue", 32, "sessions waiting for a slot before 503")
		cacheSize    = flag.Int("cache-sessions", 128, "reformulation session-cache entries")
		defaultK     = flag.Int("k", 10, "default per-request plan budget")
		maxK         = flag.Int("max-k", 1000, "maximum per-request plan budget")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight streams")
		flight       = flag.Int("flight", 64, "flight-recorder recent-request entries (/debug/requests)")
		traceOut     = flag.String("trace-out", "", "append finished request traces to this NDJSON file (qptrace input)")
		calibOut     = flag.String("calib-out", "", "append per-request calibration snapshots to this NDJSON file (may equal -trace-out; qptrace ingests the mixed stream)")
		logRequests  = flag.Bool("log-requests", true, "log one structured line per request to stderr, correlated by trace ID")
		sloTTFA      = flag.Duration("slo-ttfa", 0, "time-to-first-answer objective (0 disables)")
		sloFull      = flag.Duration("slo-full", 0, "full-session latency objective (0 disables)")
		sloTarget    = flag.Float64("slo-target", 0.99, "fraction of sessions that must meet the objectives")
		sloWindow    = flag.Duration("slo-window", 5*time.Minute, "rolling window for burn-rate accounting")
	)
	flag.Parse()
	var dom *domfile.Domain
	switch {
	case *file != "" && *storeDir != "":
		return fmt.Errorf("-f and -store are mutually exclusive")
	case *storeDir != "":
		// Startup loads the persisted statistics catalog instead of
		// synthesizing a domain; LoadCatalog checksums the envelope but
		// never faults a segment data page.
		cat, q, err := store.LoadCatalog(*storeDir)
		if err != nil {
			return err
		}
		dom = &domfile.Domain{Catalog: cat, Query: q}
		fmt.Printf("loaded store %s: %d sources\n", *storeDir, cat.Len())
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		var perr error
		dom, perr = domfile.Parse(f)
		f.Close()
		if perr != nil {
			return perr
		}
	default:
		return fmt.Errorf("missing -f domain file (or -store directory)")
	}

	reg := obs.NewRegistry()
	cfg := server.Config{
		Catalog:       dom.Catalog,
		Seed:          *seed,
		N:             *bigN,
		MaxInflight:   *maxInflight,
		MaxQueue:      *maxQueue,
		CacheSessions: *cacheSize,
		DefaultK:      *defaultK,
		MaxK:          *maxK,
		Reg:           reg,
		FlightEntries: *flight,
		SLO: obs.NewSLOMonitor(obs.SLOConfig{
			TTFAObjective: *sloTTFA,
			FullObjective: *sloFull,
			Target:        *sloTarget,
			Window:        *sloWindow,
		}),
	}
	if *logRequests {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if *traceOut != "" {
		tf, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer tf.Close()
		cfg.TraceOut = tf
	}
	if *calibOut != "" {
		if *calibOut == *traceOut {
			// Same file: share the handle so trace and calibration lines
			// interleave whole (the server serializes both writers).
			cfg.CalibOut = cfg.TraceOut
		} else {
			cf, err := os.OpenFile(*calibOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer cf.Close()
			cfg.CalibOut = cf
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout first so scripts starting the
	// daemon on port 0 can scrape the port.
	fmt.Printf("listening on %s\n", ln.Addr())
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("draining")
	srv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("drained cleanly")
	return nil
}
