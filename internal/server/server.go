// Package server implements didtd, the long-lived HTTP front-end over the
// experiment suite and the closed-loop simulator. It turns the one-shot
// CLI workflow (cmd/experiments, cmd/didtsim) into an always-on service:
//
//	POST /v1/sweep      run experiment sweeps (table2, fig10, fig14..18, ...)
//	POST /v1/simulate   run one closed-loop simulation
//	POST /v1/batch      run many simulate specs, streamed as NDJSON records
//	GET  /healthz       liveness + drain state
//	GET  /metrics       telemetry registry snapshot (canonical JSON)
//	GET  /debug/pprof/  pprof profiling endpoints
//
// The determinism contract is the service's API guarantee: a /v1/sweep
// response body is exactly the experiment's rendered output — the bytes
// cmd/experiments prints for the same parameters — and is identical at
// any parallelism setting and regardless of what the shared caches
// already hold, because every cached artifact is a deterministic function
// of its key. Requests carry explicit seeds and deadlines; admission is a
// bounded queue in front of the sweep engine (429 when full, 503 while
// draining), request contexts thread into sim.Map, and graceful shutdown
// drains running sweeps before the process exits.
//
// Determinism is also what makes results cacheable at the wire: every
// sweep/simulate response is filed in the optional disk store under its
// content key and served from disk on repeat requests (strong ETag,
// If-None-Match → 304), and concurrent identical requests coalesce onto
// one engine run through a per-key singleflight — N clients asking the
// same question cost one run-slot admission and one simulation.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"didt/internal/core"
	"didt/internal/experiments"
	"didt/internal/isa"
	"didt/internal/sim"
	"didt/internal/spec"
	"didt/internal/store"
	"didt/internal/telemetry"
)

// Config sizes the service.
type Config struct {
	// MaxConcurrent bounds how many sweep/simulate requests execute at
	// once (each fans out over its own worker count); <= 0 selects 2.
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for a run
	// slot; < 0 selects 0 (no queue), 0 selects the default 8.
	QueueDepth int
	// DefaultTimeout bounds requests that carry no explicit deadline;
	// <= 0 selects 5 minutes.
	DefaultTimeout time.Duration
	// Parallel is the per-request sweep worker count used when a request
	// does not specify one; <= 0 selects sim.DefaultWorkers.
	Parallel int
	// Store, when non-nil, is the durable result store: sweep/simulate/
	// batch responses are persisted under their content key and repeat
	// requests are served from disk — across process restarts — without
	// admitting a run. nil disables persistence; coalescing still works.
	Store *store.Store
	// Registry receives the service metrics; nil selects the process-wide
	// telemetry.Default() (which also carries the engine/cache metrics).
	Registry *telemetry.Registry
	// Logger receives the JSON access log and app-level records; nil
	// disables logging entirely (tests, embedded use).
	Logger *slog.Logger
	// Spans receives request spans (root span per request, per-experiment
	// and per-job children). nil — or a disabled tracer — means requests
	// still carry trace ids for log correlation, but no spans are recorded.
	Spans *telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	return c
}

// Server is the didtd HTTP service. Create with New; the zero value is
// not usable.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	started time.Time

	// Admission control: admitted holds every request that occupies the
	// service (queued or running, cap MaxConcurrent+QueueDepth); running
	// holds the subset actually executing (cap MaxConcurrent). A request
	// that cannot enter admitted is rejected with 429; one that is queued
	// when shutdown begins is released with 503 via drain.
	admitted chan struct{}
	running  chan struct{}

	drainOnce sync.Once
	drain     chan struct{}
	inflight  sync.WaitGroup

	// flights coalesces concurrent identical work requests at the wire:
	// per result key, one leader runs the engine while every other
	// request waits for the leader's bytes (see cache.go).
	flights sim.FlightGroup[string, wireResult]

	mRequests     *telemetry.Counter
	mRejected     *telemetry.Counter
	mUnavailable  *telemetry.Counter
	mEngineRuns   *telemetry.Counter
	mCoalesced    *telemetry.Counter
	mNotModified  *telemetry.Counter
	mBatchEntries *telemetry.Counter
	mBatchDeduped *telemetry.Counter
	gQueueDepth   *telemetry.Gauge
	gActive       *telemetry.Gauge

	// Test hooks, nil in production: testRunStarted receives one value
	// when a request passes admission and starts running; testRunGate,
	// when non-nil, blocks the running request until it is closed;
	// testSimulatePanic, when non-nil, is the value a simulate job
	// panics with in place of running.
	testRunStarted    chan<- struct{}
	testRunGate       <-chan struct{}
	testSimulatePanic any
}

// New assembles a server. It does not listen; wire Handler() into an
// http.Server (see cmd/didtd).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		started:  time.Now(),
		admitted: make(chan struct{}, cfg.MaxConcurrent+cfg.QueueDepth),
		running:  make(chan struct{}, cfg.MaxConcurrent),
		drain:    make(chan struct{}),

		mRequests:     cfg.Registry.Counter("didtd.requests_total"),
		mRejected:     cfg.Registry.Counter("didtd.rejected_total"),
		mUnavailable:  cfg.Registry.Counter("didtd.unavailable_total"),
		mEngineRuns:   cfg.Registry.Counter("didtd.engine_runs_total"),
		mCoalesced:    cfg.Registry.Counter("didtd.coalesced_total"),
		mNotModified:  cfg.Registry.Counter("didtd.not_modified_total"),
		mBatchEntries: cfg.Registry.Counter("didtd.batch.entries_total"),
		mBatchDeduped: cfg.Registry.Counter("didtd.batch.deduped_total"),
		gQueueDepth:   cfg.Registry.Gauge("didtd.admission.queue_depth"),
		gActive:       cfg.Registry.Gauge("didtd.active_requests"),
	}
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/spec/default", s.handleSpecDefault)
	s.mux.HandleFunc("GET /v1/spans", s.handleSpans)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the service's HTTP handler: the route mux behind the
// observe middleware (trace ids, root spans, access log, latency metric).
func (s *Server) Handler() http.Handler { return s.observe(s.mux) }

// BeginShutdown puts the server into draining mode: every subsequent (and
// every queued) sweep/simulate request is rejected with 503 while already
// running requests continue. Idempotent.
func (s *Server) BeginShutdown() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// Drain enters draining mode and blocks until every in-flight request has
// finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginShutdown()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// queuedLen reports how many admitted requests are waiting for a run
// slot, clamped at zero: the two channel length reads are not atomic
// against concurrent admission transitions, so the raw difference can
// transiently read negative (a request released admitted between the two
// reads). Every reporting surface goes through this clamp.
func (s *Server) queuedLen() int {
	if q := len(s.admitted) - len(s.running); q > 0 {
		return q
	}
	return 0
}

func (s *Server) updateAdmissionGauges() {
	active := len(s.running)
	s.gActive.Set(float64(active))
	if q := len(s.admitted) - active; q >= 0 {
		s.gQueueDepth.Set(float64(q))
	}
}

// acceptWork is the front gate every work request passes before touching
// the store, a flight, or admission: it counts the request and turns all
// new work away while draining. Store hits and coalesced followers pass
// through here — they are real requests — but never proceed to admit;
// only flight leaders that must actually run the engine do.
func (s *Server) acceptWork(w http.ResponseWriter, r *http.Request) bool {
	s.mRequests.Inc()
	if s.draining() {
		s.mUnavailable.Inc()
		s.logAdmission(r, "draining")
		writeError(w, r, http.StatusServiceUnavailable, codeDraining,
			"didtd: draining, not accepting new work")
		return false
	}
	return true
}

// admit reserves a run slot for a work request, answering the request
// itself when it cannot run (queue overflow → 429, drained while queued →
// 503, abandoned while queued → client is gone, nothing to write). The
// returned release function must be called exactly once when ok. Callers
// must have passed acceptWork first; admit itself no longer rechecks the
// drain flag on entry because draining lets already-accepted work finish.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case s.admitted <- struct{}{}:
	default:
		s.mRejected.Inc()
		s.logAdmission(r, "overflow")
		writeError(w, r, http.StatusTooManyRequests, codeOverflow,
			fmt.Sprintf("didtd: admission queue full (%d queued + %d running)",
				s.cfg.QueueDepth, s.cfg.MaxConcurrent))
		return nil, false
	}
	s.inflight.Add(1)
	s.updateAdmissionGauges()
	// Queue wait: time between entering the admitted set and winning a run
	// slot. Feeds the latency histogram and the access log; the rate-style
	// counterpart lives in sim.pool.queue_wait_ns_total.
	queued := telemetry.StartTimer()
	select {
	case s.running <- struct{}{}:
	case <-s.drain:
		<-s.admitted //didt:allow ctxflow -- provably non-blocking: returns the token this request put into the buffered admitted channel
		s.inflight.Done()
		s.updateAdmissionGauges()
		s.mUnavailable.Inc()
		s.logAdmission(r, "drained_while_queued")
		writeError(w, r, http.StatusServiceUnavailable, codeDraining,
			"didtd: draining, not accepting new work")
		return nil, false
	case <-r.Context().Done():
		<-s.admitted //didt:allow ctxflow -- provably non-blocking: returns the token this request put into the buffered admitted channel
		s.inflight.Done()
		s.updateAdmissionGauges()
		setOutcome(r.Context(), "client_gone")
		return nil, false // client is gone; nothing to answer
	}
	waitMS := queued.ElapsedMS()
	setQueueWait(r.Context(), waitMS)
	// 0-30s linear in 120 buckets (250ms each); created on first admission
	// so a fresh server's snapshot is unchanged.
	s.cfg.Registry.Histogram("didtd.admission.queue_wait_ms", 0, 30_000, 120).Observe(waitMS)
	s.updateAdmissionGauges()
	release = func() {
		<-s.running  //didt:allow ctxflow -- provably non-blocking: returns the run slot this request won above
		<-s.admitted //didt:allow ctxflow -- provably non-blocking: returns the token this request put into the buffered admitted channel
		s.inflight.Done()
		s.updateAdmissionGauges()
	}
	// Test hooks (nil in production). Both sit on the path every admitted
	// sweep traverses — including SSE progress streams — so an unguarded
	// send here once let a vanished client wedge a run slot forever: the
	// hook channels are unbuffered, and nothing drained them after the
	// test (or the client) gave up. Guard both with the request context,
	// releasing the slot on abandonment. Deliberately NOT guarded with the
	// drain signal: this request is already admitted, and draining lets
	// admitted work finish — only new and still-queued requests are turned
	// away.
	if s.testRunStarted != nil {
		select {
		case s.testRunStarted <- struct{}{}:
		case <-r.Context().Done():
			release()
			setOutcome(r.Context(), "client_gone")
			return nil, false
		}
	}
	if s.testRunGate != nil {
		select {
		case <-s.testRunGate:
		case <-r.Context().Done():
			release()
			setOutcome(r.Context(), "client_gone")
			return nil, false
		}
	}
	return release, true
}

// requestContext derives the request's execution context: the client's
// context bounded by the explicit per-request deadline (milliseconds) or
// the server default.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// decodeJSON parses a bounded request body into v, answering malformed
// bodies with the unified envelope (oversized ones as 413).
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	return decodeJSONLimit(w, r, v, 1<<20)
}

// decodeJSONLimit is decodeJSON with an explicit size bound (batch bodies
// carry thousands of specs and get a larger one). The body must be
// exactly one JSON document: trailing data after the first document is a
// 400, not silently ignored — a client that concatenated two requests
// into one body would otherwise have its second request dropped and the
// first answered as if it were the whole story.
func decodeJSONLimit(w http.ResponseWriter, r *http.Request, v interface{}, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
				"didtd: request body exceeds "+fmt.Sprint(tooLarge.Limit)+" bytes")
			return false
		}
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "didtd: bad request: "+err.Error())
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		writeError(w, r, http.StatusBadRequest, codeBadRequest,
			"didtd: bad request: unexpected data after JSON body")
		return false
	}
	return true
}

// writeRunError maps a failed run to a status code: deadline → 504,
// client cancellation → nothing (the connection is gone), anything else
// → 500. All through the unified envelope.
func writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, r, http.StatusGatewayTimeout, codeTimeout, "didtd: deadline exceeded: "+err.Error())
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// Client disconnected; no one is listening.
		setOutcome(r.Context(), "client_gone")
	default:
		writeError(w, r, http.StatusInternalServerError, codeInternal, "didtd: run failed: "+err.Error())
	}
}

// logPanic records a contained engine panic's value and stack in the
// server log. The client's error carries the value alone: the stack names
// the server's source files and goroutine state.
func (s *Server) logPanic(ctx context.Context, err error) {
	var pe *sim.PanicError
	if l := s.cfg.Logger; l != nil && errors.As(err, &pe) {
		l.LogAttrs(ctx, slog.LevelError, "engine panic",
			slog.String("panic", fmt.Sprint(pe.Value)),
			slog.String("stack", string(pe.Stack)),
			slog.String("trace_id", telemetry.TraceIDFromContext(ctx)))
	}
}

// logAdmission emits one app-level record for a rejected or drained
// request; the access log then records the response itself.
func (s *Server) logAdmission(r *http.Request, reason string) {
	if l := s.cfg.Logger; l != nil {
		l.LogAttrs(r.Context(), slog.LevelWarn, "admission rejected",
			slog.String("reason", reason),
			slog.String("path", r.URL.Path),
			slog.String("trace_id", telemetry.TraceIDFromContext(r.Context())),
			slog.Int("active", len(s.running)),
			slog.Int("queued", s.queuedLen()))
	}
}

// SweepRequest selects experiments and the configuration to run them
// under. Zero-valued fields take the defaults of cmd/experiments (the
// full-size configuration, or the quick one when Quick is set), so equal
// parameters produce byte-identical output across the CLI and the server.
type SweepRequest struct {
	// Run names one experiment id or "all"; Runs, when non-empty, names
	// an explicit list and takes precedence.
	Run  string   `json:"run,omitempty"`
	Runs []string `json:"runs,omitempty"`

	Quick            bool     `json:"quick,omitempty"`
	Cycles           uint64   `json:"cycles,omitempty"`
	Warmup           uint64   `json:"warmup,omitempty"`
	Iterations       int      `json:"iterations,omitempty"`
	StressIterations int      `json:"stress_iterations,omitempty"`
	Benchmarks       []string `json:"benchmarks,omitempty"`

	// Seed is applied only when present, mirroring the CLI's "flag was
	// explicitly set" semantics (an explicit 0 is a valid seed).
	Seed *int64 `json:"seed,omitempty"`

	// Parallel is the sweep worker count (0 = server default). The
	// response is byte-identical at any setting.
	Parallel int `json:"parallel,omitempty"`

	// TimeoutMS bounds the request (0 = server default deadline).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Progress selects the response mode: "" (default) answers with the
	// rendered bytes only; "sse" streams per-experiment progress as
	// Server-Sent Events and delivers the identical rendered bytes in the
	// final `result` event. The `progress=sse` query parameter is
	// equivalent.
	Progress string `json:"progress,omitempty"`
}

// config assembles the experiments configuration for the request.
func (req *SweepRequest) config(serverParallel int) experiments.Config {
	cfg := experiments.Default()
	if req.Quick {
		cfg = experiments.Quick()
	}
	if req.Cycles != 0 {
		cfg.Cycles = req.Cycles
	}
	if req.Warmup != 0 {
		cfg.Warmup = req.Warmup
	}
	if req.Iterations != 0 {
		cfg.Iterations = req.Iterations
	}
	if req.StressIterations != 0 {
		cfg.StressIter = req.StressIterations
	}
	if len(req.Benchmarks) > 0 {
		cfg.Benchmarks = req.Benchmarks
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	cfg.Parallel = req.Parallel
	if cfg.Parallel <= 0 {
		cfg.Parallel = serverParallel
	}
	return cfg
}

// ids resolves the requested experiment list against the registry,
// preserving request order ("all" expands to the paper's order).
func (req *SweepRequest) ids() ([]string, error) {
	ids := req.Runs
	if len(ids) == 0 {
		if req.Run == "" {
			return nil, errors.New("request names no experiment (set run or runs)")
		}
		if req.Run == "all" {
			return experiments.IDs(), nil
		}
		ids = []string{req.Run}
	}
	return experiments.ResolveIDs(ids)
}

// decodeSweep decodes and validates a /v1/sweep body into the sweep it
// asks for: the experiments configuration (serverParallel filling an unset
// worker count), the resolved experiment ids and whether to stream
// progress. On a bad body it has written the error envelope and returns
// ok false.
func decodeSweep(w http.ResponseWriter, r *http.Request, serverParallel int) (req SweepRequest, cfg experiments.Config, ids []string, sse, ok bool) {
	if !decodeJSON(w, r, &req) {
		return req, cfg, nil, false, false
	}
	ids, err := req.ids()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "didtd: bad request: "+err.Error())
		return req, cfg, nil, false, false
	}
	cfg = req.config(serverParallel)
	if err := cfg.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "didtd: bad request: "+err.Error())
		return req, cfg, nil, false, false
	}
	if req.Progress != "" && req.Progress != "sse" {
		writeError(w, r, http.StatusBadRequest, codeBadRequest,
			"didtd: bad request: unknown progress mode "+fmt.Sprintf("%q", req.Progress)+" (use \"sse\")")
		return req, cfg, nil, false, false
	}
	sse = req.Progress == "sse" || r.URL.Query().Get("progress") == "sse"
	return req, cfg, ids, sse, true
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, cfg, ids, sse, ok := decodeSweep(w, r, s.cfg.Parallel)
	if !ok {
		return
	}
	setSpecKey(r.Context(), cfg.Spec().Key())
	if !s.acceptWork(w, r) {
		return
	}
	if sse {
		s.handleSweepSSE(w, r, cfg, ids, req.TimeoutMS)
		return
	}
	// The plain (non-SSE) response is a pure function of its key, so it
	// rides the full caching path: store, singleflight, then the engine.
	key := "didtd|sweep|" + cfg.ResultKey(ids)
	s.serveCached(w, r, key, req.TimeoutMS, "text/plain; charset=utf-8",
		func(h http.Header) { h.Set("X-Didtd-Experiments", strings.Join(ids, ",")) },
		func(ctx context.Context) ([]byte, error) { return s.runSweep(ctx, cfg, ids, nil) })
}

// handleSweepSSE is the live-progress variant. SSE deliberately bypasses
// the store and the singleflight: progress events only exist while the
// engine actually runs, so an SSE request always admits and executes —
// its final `result` event still carries the canonical bytes.
func (s *Server) handleSweepSSE(w http.ResponseWriter, r *http.Request, cfg experiments.Config, ids []string, timeoutMS int64) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()
	stream, err := newSSEStream(w)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, codeInternal, "didtd: "+err.Error())
		return
	}
	body, err := s.runSweep(ctx, cfg, ids, stream)
	if err != nil {
		stream.errorEvent(r, err)
		setOutcome(r.Context(), "error")
		return
	}
	stream.resultEvent(body, ids)
}

// runSweep renders the requested experiments in order into one buffer —
// the exact bytes the wire (and the store) carries. Nothing is written
// until every runner has succeeded, preserving the determinism contract;
// stream, when non-nil, receives per-experiment progress events.
func (s *Server) runSweep(ctx context.Context, cfg experiments.Config, ids []string, stream *sseStream) ([]byte, error) {
	// The request context (trace id, tracer, current span) rides into the
	// experiment runners and from there into sim.Map job dispatch.
	cfg.Ctx = ctx
	reg := experiments.Registry()
	var buf bytes.Buffer
	for i, id := range ids {
		stream.experimentEvent(id, "start", i, len(ids), 0)
		var span *telemetry.Span
		ectx := ctx
		if s.cfg.Spans.Enabled() {
			ectx, span = s.cfg.Spans.Start(ctx, "sweep.experiment",
				telemetry.AttrStr("experiment", id))
		}
		ecfg := cfg
		ecfg.Ctx = ectx
		timer := telemetry.StartTimer()
		err := reg[id](ecfg, &buf)
		durMS := timer.ElapsedMS()
		if span.Enabled() {
			if err != nil {
				span.SetAttr("error", "true")
			}
			span.End()
		}
		// Per-experiment duration histogram, one labeled series per id
		// (0-5min linear, 5s buckets), created on first observation.
		s.cfg.Registry.Histogram(
			`didtd.sweep.experiment_duration_ms{experiment="`+id+`"}`,
			0, 300_000, 60).Observe(durMS)
		if err != nil {
			s.logPanic(ectx, err)
			return nil, err
		}
		stream.experimentEvent(id, "done", i, len(ids), durMS)
	}
	return buf.Bytes(), nil
}

// SimulateRequest configures one closed-loop run, mirroring cmd/didtsim.
// Two forms exist: the flat legacy fields below, or a full RunSpec in
// Spec. The two must not be mixed in one request.
type SimulateRequest struct {
	// Spec, when present, is the complete run description; every flat
	// field except timeout_ms must then be absent. GET /v1/spec/default
	// returns the fully resolved default to start from.
	Spec *spec.RunSpec `json:"spec,omitempty"`

	// Workload is "stressmark" or a SPEC2000 profile name (workload.Names).
	Workload string `json:"workload,omitempty"`

	ImpedancePct float64 `json:"impedance_pct,omitempty"` // 0 = 2.0 (200%)
	Control      bool    `json:"control,omitempty"`
	Mechanism    string  `json:"mechanism,omitempty"` // FU, FU/DL1, FU/DL1/IL1, ideal, or "gate X, fire Y" of two of them
	Delay        int     `json:"delay,omitempty"`
	NoiseMV      float64 `json:"noise_mv,omitempty"`
	Cycles       uint64  `json:"cycles,omitempty"`     // 0 = 400000
	Warmup       uint64  `json:"warmup,omitempty"`     // 0 = core default
	Iterations   int     `json:"iterations,omitempty"` // 0 = 3000
	// Seed is applied only when present, mirroring the CLI's "flag was
	// explicitly set" semantics: an absent seed leaves the spec's seed
	// unset (resolved by WithDefaults), while an explicit 0 is a valid
	// seed. A bare int64 cannot express that difference — `"seed":0`
	// and no seed at all would both decode to 0 yet mean different runs.
	Seed      *int64 `json:"seed,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// SimulateResponse is the JSON form of a run's summary statistics.
type SimulateResponse struct {
	Workload string `json:"workload"`
	// SpecKey is the resolved spec's content hash; set only for requests
	// made through the spec form (legacy responses are unchanged).
	SpecKey       string  `json:"spec_key,omitempty"`
	Cycles        uint64  `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	IPC           float64 `json:"ipc"`
	IMinA         float64 `json:"i_min_a"`
	IMaxA         float64 `json:"i_max_a"`
	MinV          float64 `json:"min_v"`
	MaxV          float64 `json:"max_v"`
	VNominal      float64 `json:"v_nominal"`
	Emergencies   uint64  `json:"emergencies"`
	EmergencyFreq float64 `json:"emergency_freq"`
	EnergyJ       float64 `json:"energy_j"`
	AvgPowerW     float64 `json:"avg_power_w"`

	Control *ControlSummary `json:"control,omitempty"`
}

// ControlSummary reports the controller's solved thresholds and actuation
// counts for controlled runs.
type ControlSummary struct {
	Mechanism    string  `json:"mechanism"`
	Delay        int     `json:"delay"`
	NoiseMV      float64 `json:"noise_mv"`
	Stable       bool    `json:"stable"`
	LowV         float64 `json:"low_v"`
	HighV        float64 `json:"high_v"`
	SafeWindowMV float64 `json:"safe_window_mv"`
	Gating       uint64  `json:"gating_actuations"`
	Phantom      uint64  `json:"phantom_actuations"`
}

// decodeSimulate decodes a /v1/simulate body and resolves it into the run
// it asks for: the validated spec and its program. On a bad body it has
// written the error envelope and returns ok false.
func decodeSimulate(w http.ResponseWriter, r *http.Request) (req SimulateRequest, resolved spec.RunSpec, program isa.Program, ok bool) {
	if !decodeJSON(w, r, &req) {
		return req, resolved, nil, false
	}
	sp, err := req.spec()
	if err == nil {
		resolved, err = sp.Resolve()
	}
	if err == nil {
		program, err = resolved.Program()
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "didtd: bad request: "+err.Error())
		return req, resolved, nil, false
	}
	return req, resolved, program, true
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, resolved, program, ok := decodeSimulate(w, r)
	if !ok {
		return
	}
	setSpecKey(r.Context(), resolved.Key())
	if !s.acceptWork(w, r) {
		return
	}
	s.serveCached(w, r, simulateStoreKey(resolved.Key(), req.Spec != nil), req.TimeoutMS,
		"application/json", nil,
		func(ctx context.Context) ([]byte, error) {
			return s.simulateBody(ctx, resolved, program, req.Spec != nil)
		})
}

// simulateStoreKey files a simulate response under the resolved spec's
// content hash. The request form is part of the identity because the two
// forms render different bodies for the same spec: only the spec form
// carries the spec_key field, so sharing one entry would leak it into
// legacy responses (or strip it from spec-form ones).
func simulateStoreKey(specKey string, specForm bool) string {
	form := "flat"
	if specForm {
		form = "spec"
	}
	return "didtd|simulate|" + form + "|" + specKey
}

// simulateBody runs one simulation and renders the JSON summary — the
// exact bytes the wire carries, so the store and coalesced followers
// serve responses byte-identical to a fresh run.
func (s *Server) simulateBody(ctx context.Context, resolved spec.RunSpec, program isa.Program, specForm bool) ([]byte, error) {
	opts := core.Options{Spec: resolved}
	// Run through the sweep engine so the request context is honoured at
	// the job boundary (a single simulation is a one-job sweep).
	results, err := sim.Map(ctx, 1, 1, func(context.Context, int) (*core.Result, error) {
		if s.testSimulatePanic != nil {
			panic(s.testSimulatePanic)
		}
		sys, err := core.NewSystem(program, opts)
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		return sys.Run()
	})
	if err != nil {
		s.logPanic(ctx, err)
		return nil, err
	}
	res := results[0]
	resp := SimulateResponse{
		Workload:      resolved.Workload.Name,
		Cycles:        res.Cycles,
		Instructions:  res.Stats.Instructions,
		IPC:           res.IPC(),
		IMinA:         res.IMin,
		IMaxA:         res.IMax,
		MinV:          res.MinV,
		MaxV:          res.MaxV,
		VNominal:      res.VNominal,
		Emergencies:   res.Emergencies,
		EmergencyFreq: res.EmergencyFreq,
		EnergyJ:       res.Energy,
		AvgPowerW:     res.AvgPower,
	}
	if specForm {
		resp.SpecKey = resolved.Key()
	}
	if resolved.Control.Enabled {
		mech, _ := resolved.Mechanism()
		resp.Control = &ControlSummary{
			Mechanism:    mech.Name,
			Delay:        resolved.Sensor.DelayCycles,
			NoiseMV:      resolved.Sensor.NoiseMV,
			Stable:       res.Thresholds.Stable,
			LowV:         res.Thresholds.Low,
			HighV:        res.Thresholds.High,
			SafeWindowMV: res.Thresholds.SafeWindow * 1e3,
			Gating:       res.LowEvents,
			Phantom:      res.HighEvents,
		}
	}
	return renderJSON(resp)
}

// spec assembles the run spec a simulate request describes: the embedded
// RunSpec verbatim for spec-form requests, or the flat fields mapped onto
// a spec for the legacy form. Mixing the two forms is an error — silently
// ignoring flat fields next to a spec would mask caller bugs.
func (req *SimulateRequest) spec() (spec.RunSpec, error) {
	if req.Spec != nil {
		if req.Workload != "" || req.ImpedancePct != 0 || req.Control ||
			req.Mechanism != "" || req.Delay != 0 || req.NoiseMV != 0 ||
			req.Cycles != 0 || req.Warmup != 0 || req.Iterations != 0 ||
			req.Seed != nil {
			return spec.RunSpec{}, errors.New("spec cannot be combined with flat simulate fields")
		}
		return *req.Spec, nil
	}
	if req.Workload == "" {
		return spec.RunSpec{}, errors.New("request names no workload")
	}
	var sp spec.RunSpec
	sp.Workload.Name = req.Workload
	sp.Workload.Iterations = req.Iterations
	sp.PDN.ImpedancePct = req.ImpedancePct
	sp.Control.Enabled = req.Control
	sp.Actuator.Mechanism = req.Mechanism
	sp.Sensor.DelayCycles = req.Delay
	sp.Sensor.NoiseMV = req.NoiseMV
	// The service's historical cycle budget is tighter than the spec
	// default (requests are interactive), so 0 keeps meaning 400k here.
	sp.Budget.MaxCycles = req.Cycles
	if sp.Budget.MaxCycles == 0 {
		sp.Budget.MaxCycles = 400_000
	}
	sp.Budget.WarmupCycles = req.Warmup
	if req.Seed != nil {
		sp.Seed = spec.NewSeed(*req.Seed)
	}
	return sp, nil
}

// handleSpecDefault serves the fully resolved default run spec — the
// canonical starting point callers override to build spec-form simulate
// requests.
func (s *Server) handleSpecDefault(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, spec.Default())
}

// buildVersion resolves the module version and VCS revision once; "devel"
// when built outside a module release (go test, local builds).
var buildVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	version := bi.Main.Version
	if version == "" || version == "(devel)" {
		version = "devel"
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
			return version + "+" + kv.Value[:12]
		}
	}
	return version
})

// goVersion reports the toolchain that built the binary.
var goVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.GoVersion
	}
	return "unknown"
})

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]interface{}{
		"status":          status,
		"version":         buildVersion(),
		"go_version":      goVersion(),
		"active_requests": len(s.running),
		"queued_requests": s.queuedLen(),
		"max_concurrent":  s.cfg.MaxConcurrent,
		"queue_depth":     s.cfg.QueueDepth,
		"uptime_s":        int64(time.Since(s.started).Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		snap := s.cfg.Registry.Snapshot()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, s.cfg.Registry.Snapshot())
	default:
		writeError(w, r, http.StatusBadRequest, codeBadRequest,
			"didtd: unknown metrics format "+fmt.Sprintf("%q", format)+" (use json or prometheus)")
	}
}

// handleSpans exports the completed request spans: JSONL by default,
// Chrome trace-event JSON with ?format=chrome (loadable in Perfetto).
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		telemetry.WriteSpansJSONL(w, s.cfg.Spans)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		telemetry.WriteSpanChromeTrace(w, s.cfg.Spans)
	default:
		writeError(w, r, http.StatusBadRequest, codeBadRequest,
			"didtd: unknown spans format "+fmt.Sprintf("%q", format)+" (use jsonl or chrome)")
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// renderJSON renders v exactly as writeJSON serializes it — two-space
// indent plus trailing newline — so stored bodies match live responses
// byte for byte.
func renderJSON(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
