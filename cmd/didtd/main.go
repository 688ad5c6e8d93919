// Command didtd serves the experiment suite and the closed-loop simulator
// over HTTP, turning the one-shot CLI workflow into a long-lived service.
//
// Usage:
//
//	didtd -addr :8080 -max-concurrent 2 -queue-depth 8
//
// Endpoints (see internal/server for request/response schemas):
//
//	POST /v1/sweep      run experiment sweeps; the response body is exactly
//	                    the bytes cmd/experiments would print for the same
//	                    parameters, byte-identical at any -parallel setting
//	POST /v1/simulate   run one closed-loop simulation, JSON summary out;
//	                    accepts either flat fields or a full run spec
//	POST /v1/batch      run many simulate specs under one admission slot,
//	                    one NDJSON record per entry in completion order
//	GET  /v1/spec/default  the fully resolved default run spec
//	GET  /v1/spans      recent spans as JSONL (?format=chrome for a Chrome
//	                    trace viewer file)
//	GET  /healthz       liveness, drain state, build identity
//	GET  /metrics       telemetry registry snapshot (?format=prometheus for
//	                    text exposition)
//	GET  /debug/pprof/  pprof profiling endpoints
//
// Requests log as structured JSON (or text with -log-format text) with a
// trace_id correlating each access-log line with its spans.
//
// Admission is a bounded queue: when max-concurrent requests are running
// and queue-depth more are waiting, further work is rejected with 429. On
// SIGINT/SIGTERM the server stops accepting work (503), drains in-flight
// requests for up to -shutdown-grace, then exits.
//
// With -store-dir set, every sweep/simulate/batch response is persisted in
// a disk-backed content-addressed store and repeat requests — including
// after a restart — are served from disk with a strong ETag and no
// admission cost (If-None-Match answers 304). -store-cap and -store-ttl
// bound the store; its janitor evicts oldest entries beyond either limit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"didt/internal/server"
	"didt/internal/sim"
	"didt/internal/spec"
	"didt/internal/store"
	"didt/internal/telemetry"
)

// newLogger builds the process logger from the -log-level/-log-format
// flags. Logs go to stderr; stdout stays reserved for -print-default-spec
// and friends.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want json or text)", format)
	}
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		maxConc   = flag.Int("max-concurrent", 2, "sweep/simulate requests executing at once")
		queue     = flag.Int("queue-depth", 8, "admitted requests that may wait for a run slot")
		timeout   = flag.Duration("timeout", 5*time.Minute, "default per-request deadline (requests may set their own)")
		parallel  = flag.Int("parallel", 0, "default sweep worker count per request (0 = GOMAXPROCS)")
		grace     = flag.Duration("shutdown-grace", 30*time.Second, "how long to drain in-flight requests on shutdown")
		dump      = flag.Bool("print-default-spec", false, "print the resolved default run spec as JSON and exit")
		listCaps  = flag.Bool("list-cache-caps", false, "print the tunable shared-cache capacities and exit")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "json", "log output format: json or text")
		spans     = flag.Bool("spans", true, "record request/experiment spans (export at GET /v1/spans)")
		spanRing  = flag.Int("span-ring", telemetry.DefaultSpanRingCap, "completed spans kept in memory for export")
		storeDir  = flag.String("store-dir", "", "directory for the durable result store (empty = results are not persisted)")
		storeCap  = flag.Int("store-cap", 4096, "max entries the result store keeps (0 = unbounded)")
		storeTTL  = flag.Duration("store-ttl", 0, "max age of a stored result (0 = never expires)")
	)
	flag.Func("cache-cap", "override a shared cache capacity as name=entries (repeatable; 0 = unbounded; see -list-cache-caps)", func(v string) error {
		name, val, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want name=entries, got %q", v)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bad entry count %q: %w", val, err)
		}
		return sim.SetCacheCapacity(name, n)
	})
	flag.Parse()

	if *listCaps {
		for _, name := range sim.CacheCapacityNames() {
			n, _ := sim.CacheCapacity(name)
			fmt.Printf("%s\t%d\n", name, n)
		}
		return
	}

	if *dump {
		// Exactly the bytes GET /v1/spec/default serves; ci.sh diffs this
		// against the checked-in golden to catch silent default drift.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec.Default()); err != nil {
			fmt.Fprintln(os.Stderr, "didtd:", err)
			os.Exit(1)
		}
		return
	}

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "didtd:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	sim.SetCacheLogger(logger)

	tracer := telemetry.NewTracer(0)
	tracer.SetSpanRingCap(*spanRing)
	tracer.SetEnabled(*spans)

	if *parallel > 0 {
		sim.SetDefaultWorkers(*parallel)
	}
	var resultStore *store.Store
	if *storeDir != "" {
		resultStore, err = store.Open(*storeDir, store.Options{
			Capacity: *storeCap,
			TTL:      *storeTTL,
			Registry: telemetry.Default(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "didtd:", err)
			os.Exit(1)
		}
		logger.Info("result store open", "dir", *storeDir,
			"entries", resultStore.Len(), "bytes", resultStore.Bytes(),
			"cap", *storeCap, "ttl", storeTTL.String())
	}
	srv := server.New(server.Config{
		MaxConcurrent:  *maxConc,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		Parallel:       *parallel,
		Store:          resultStore,
		Logger:         logger,
		Spans:          tracer,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "max_concurrent", *maxConc, "queue_depth", *queue, "spans", *spans)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight requests", "grace", grace.String())
	srv.BeginShutdown()
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Drain(graceCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if err := hs.Shutdown(graceCtx); err != nil {
		logger.Warn("shutdown error", "err", err)
	}
}
