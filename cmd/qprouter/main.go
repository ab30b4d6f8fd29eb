// Command qprouter is the stateless fleet front end over a set of
// qpserved shards. It routes each POST /v1/query to the shard owning the
// query's canonical key on a consistent-hash ring (so syntactic variants
// of a query always land on the same shard's reformulation cache), and
// with "scatter": true it instead partitions the PI plan space across
// every healthy shard and merges the per-shard streams back into the
// canonical utility order — byte-identical plan and answers events to a
// single qpserved executing the same request.
//
// The router holds no ordering state: kill it and start another with the
// same -shards list and affinity is unchanged (the ring is a pure
// function of the shard set). It polls every shard's /healthz; draining
// or dead shards leave the ring within one probe interval, and session
// setup retries on the next ring node with bounded doubling backoff.
// Client traceparent headers are forwarded, so a fleet hop stays inside
// one W3C trace. With -trace-out the router goes further: it runs its
// own request trace per session (admission, shard pick, proxy/slice,
// merge spans), asks every shard for its span tree via the stream's
// spans trailer, and appends the unified multi-process export — router
// plus shard snapshots under one trace ID — as NDJSON that qptrace
// stitches into a fleet-wide critical path. GET /metrics serves the
// fleet.* instruments in text or JSON form; ?format=openmetrics
// federates, merging every healthy shard's exposition (re-labeled
// shard="<index>") with the router's own. The -slo-* flags arm an SLO
// monitor — rolling-window burn rates at GET /debug/slo and slo.*
// gauges — which also tail-samples -trace-out to slow, errored, or
// budget-burning sessions. GET /healthz reports the fleet view.
//
// Usage:
//
//	qprouter -shards http://127.0.0.1:8091,http://127.0.0.1:8092 -addr :8090
//
// On SIGINT/SIGTERM the router drains: /healthz flips to 503 and
// in-flight streams run to completion (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qporder/internal/fleet"
	"qporder/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qprouter:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		shards       = flag.String("shards", "", "comma-separated qpserved base URLs (required)")
		addr         = flag.String("addr", "127.0.0.1:8090", "listen address (port 0 picks a free port)")
		replicas     = flag.Int("replicas", 64, "virtual nodes per shard on the hash ring")
		healthEvery  = flag.Duration("health-interval", time.Second, "/healthz probe period")
		healthWithin = flag.Duration("health-timeout", 2*time.Second, "per-probe deadline (floored at -health-interval)")
		retries      = flag.Int("retries", 3, "session-setup attempts across ring nodes")
		backoff      = flag.Duration("backoff", 25*time.Millisecond, "base retry backoff (doubles per attempt, capped at 1s)")
		defaultK     = flag.Int("k", 10, "default plan budget for scatter requests that omit k (match the shards' -k)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight streams")
		quiet        = flag.Bool("quiet", false, "suppress reroute/health log lines on stderr")
		traceOut     = flag.String("trace-out", "", "append unified fleet traces (router + shard spans) to this NDJSON file (qptrace input)")
		sloTTFA      = flag.Duration("slo-ttfa", 0, "time-to-first-answer objective (0 disables)")
		sloFull      = flag.Duration("slo-full", 0, "full-session latency objective (0 disables)")
		sloTarget    = flag.Float64("slo-target", 0.99, "fraction of sessions that must meet the objectives")
		sloWindow    = flag.Duration("slo-window", 5*time.Minute, "rolling window for burn-rate accounting")
	)
	flag.Parse()
	if *shards == "" {
		return fmt.Errorf("missing -shards list")
	}
	var urls []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, s)
		}
	}

	reg := obs.NewRegistry()
	cfg := fleet.Config{
		Shards:         urls,
		Replicas:       *replicas,
		HealthInterval: *healthEvery,
		HealthTimeout:  *healthWithin,
		Retries:        *retries,
		Backoff:        *backoff,
		DefaultK:       *defaultK,
		Registry:       reg,
		SLO: obs.NewSLOMonitor(obs.SLOConfig{
			TTFAObjective: *sloTTFA,
			FullObjective: *sloFull,
			Target:        *sloTarget,
			Window:        *sloWindow,
		}),
	}
	if *traceOut != "" {
		tf, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer tf.Close()
		cfg.TraceOut = tf
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rt, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout first so scripts starting the
	// router on port 0 can scrape the port.
	fmt.Printf("listening on %s\n", ln.Addr())
	httpSrv := &http.Server{Handler: rt.Handler()}

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
	rt.SetDraining(true)
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
