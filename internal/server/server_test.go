package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"didt/internal/experiments"
	"didt/internal/sim"
	"didt/internal/spec"
	"didt/internal/telemetry"
)

// tinySweep is a cheap sweep configuration shared by the integration
// tests (same shape the experiments package uses for its own tiny tests).
func tinySweep(parallel int) string {
	return fmt.Sprintf(`{"run":"table2","cycles":30000,"warmup":10000,"iterations":300,"stress_iterations":250,"benchmarks":["swim","gcc"],"parallel":%d}`, parallel)
}

func tinyConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Cycles = 30_000
	cfg.Warmup = 10_000
	cfg.Iterations = 300
	cfg.StressIter = 250
	cfg.Benchmarks = []string{"swim", "gcc"}
	return cfg
}

// resetAllCaches drops every process-wide memo so each render genuinely
// recomputes (the byte-identity test must exercise the parallel path, not
// replay cached results).
func resetAllCaches() { sim.ResetCaches() }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, string(b)
}

// TestServerSweepByteIdentical is the service's determinism contract: the
// /v1/sweep response body is exactly the experiment's rendered output —
// the bytes cmd/experiments prints — and is byte-identical at any
// parallelism setting, with caches cold or warm.
func TestServerSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep comparison in -short mode")
	}
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})

	resetAllCaches()
	var want bytes.Buffer
	if err := experiments.Registry()["table2"](tinyConfig(), &want); err != nil {
		t.Fatalf("local render: %v", err)
	}

	for _, parallel := range []int{1, 8} {
		resetAllCaches()
		code, body := postJSON(t, ts.URL+"/v1/sweep", tinySweep(parallel))
		if code != http.StatusOK {
			t.Fatalf("parallel=%d: status %d: %s", parallel, code, body)
		}
		if body != want.String() {
			t.Errorf("parallel=%d response diverges from cmd/experiments output\ngot:\n%s\nwant:\n%s", parallel, body, want.String())
		}
	}
}

// TestServerSweepRailsByteIdentical extends the determinism contract to
// the multi-rail family: the rail-graph experiments registered after the
// single-rail refactor are served through the same generic sweep path —
// no server changes — and their bytes match cmd/experiments output at any
// parallelism.
func TestServerSweepRailsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep comparison in -short mode")
	}
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})

	ids := []string{"rails-thresholds", "rails-dvs"}
	resetAllCaches()
	var want bytes.Buffer
	for _, id := range ids {
		if err := experiments.Registry()[id](tinyConfig(), &want); err != nil {
			t.Fatalf("local render %s: %v", id, err)
		}
	}

	for _, parallel := range []int{1, 8} {
		resetAllCaches()
		req := fmt.Sprintf(`{"runs":["rails-thresholds","rails-dvs"],"cycles":30000,"warmup":10000,"iterations":300,"stress_iterations":250,"benchmarks":["swim","gcc"],"parallel":%d}`, parallel)
		code, body := postJSON(t, ts.URL+"/v1/sweep", req)
		if code != http.StatusOK {
			t.Fatalf("parallel=%d: status %d: %s", parallel, code, body)
		}
		if body != want.String() {
			t.Errorf("parallel=%d rails response diverges from cmd/experiments output\ngot:\n%s\nwant:\n%s", parallel, body, want.String())
		}
	}
}

// TestServerSweepValidation: malformed and unknown requests are rejected
// before admission, with no work started.
func TestServerSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
	}{
		{"bad json", `{"run":`},
		{"unknown field", `{"experiment":"table2"}`},
		{"unknown id", `{"run":"fig99"}`},
		{"no id", `{"quick":true}`},
		{"unknown id in runs", `{"runs":["table2","nope"]}`},
	} {
		code, body := postJSON(t, ts.URL+"/v1/sweep", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, code, body)
		}
	}
}

// TestServerGracefulShutdown: BeginShutdown lets the in-flight request
// finish (and its response stays correct) while new requests get 503, and
// Drain returns once the in-flight work completes.
func TestServerGracefulShutdown(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{MaxConcurrent: 1, QueueDepth: 0, Registry: reg})
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	s.testRunStarted = started
	s.testRunGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resetAllCaches()
	var want bytes.Buffer
	cfg := tinyConfig()
	cfg.Cycles, cfg.Iterations = 20_000, 200
	if err := experiments.Registry()["fig2"](cfg, &want); err != nil {
		t.Fatalf("local render: %v", err)
	}
	resetAllCaches()

	type reply struct {
		code int
		body string
	}
	first := make(chan reply, 1)
	go func() {
		code, body := postJSON(t, ts.URL+"/v1/sweep",
			`{"run":"fig2","cycles":20000,"warmup":10000,"iterations":200,"stress_iterations":250,"benchmarks":["swim","gcc"],"parallel":2}`)
		first <- reply{code, body}
	}()
	<-started // the request holds the only run slot, blocked on the gate

	s.BeginShutdown()

	// New work is turned away while the first request is still running.
	code, body := postJSON(t, ts.URL+"/v1/sweep", tinySweep(1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503: %s", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"stressmark"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("simulate during drain: status %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}

	close(gate) // release the in-flight request

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(drainCtx) }()

	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200: %s", r.code, r.body)
	}
	if r.body != want.String() {
		t.Errorf("drained response diverges from direct render\ngot:\n%s\nwant:\n%s", r.body, want.String())
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestServerAdmissionOverflow: with one run slot and a one-deep queue, a
// third concurrent request is rejected with 429, and the admission queue
// gauge reports the queued request.
func TestServerAdmissionOverflow(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, Registry: reg})
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	s.testRunStarted = started
	s.testRunGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct bodies: identical requests would coalesce onto one flight
	// and never contend for admission — this test is about the queue.
	done := make(chan struct{}, 2)
	go func() {
		postJSON(t, ts.URL+"/v1/simulate", `{"workload":"stressmark","cycles":20000,"iterations":200}`)
		done <- struct{}{}
	}()
	<-started // first request occupies the run slot

	go func() {
		postJSON(t, ts.URL+"/v1/simulate", `{"workload":"stressmark","cycles":20000,"iterations":201}`)
		done <- struct{}{}
	}()
	// Wait for the second request to be admitted into the queue.
	waitForGauge(t, reg, "didtd.admission.queue_depth", 1)

	code, body := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"stressmark","cycles":20000,"iterations":202}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429: %s", code, body)
	}

	close(gate) // release both admitted requests
	<-started   // the queued request starts once the first releases its slot
	<-done
	<-done
}

func waitForGauge(t *testing.T, reg *telemetry.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if snap := reg.Snapshot(); snap.Gauges[name] == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("gauge %s never reached %v: %v", name, want, reg.Snapshot().Gauges)
}

// TestServerConcurrentMemoSingleflight drives the memo cache under
// capacity pressure from concurrent requests: 6 requests over 3 distinct
// seeds against a 2-entry memo must compute each study exactly once
// (pre-LRU, the flush-everything eviction dropped in-flight entries and
// concurrent requests recomputed them).
func TestServerConcurrentMemoSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent sweep fan-out in -short mode")
	}
	s := New(Config{MaxConcurrent: 6, QueueDepth: 6, Registry: telemetry.NewRegistry()})
	started := make(chan struct{}, 6)
	gate := make(chan struct{})
	s.testRunStarted = started
	s.testRunGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resetAllCaches()
	memoCap, _ := sim.CacheCapacity("experiments_memo")
	if err := sim.SetCacheCapacity("experiments_memo", 2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = sim.SetCacheCapacity("experiments_memo", memoCap)
		resetAllCaches()
	}()
	before := experiments.MemoStats()

	// ablation-window renders through the shared memo; seed is part of
	// the memo key, so 3 seeds x 2 requests = 3 distinct studies, each
	// requested twice concurrently.
	var wg sync.WaitGroup
	bodies := make([][]string, 3)
	for seed := 0; seed < 3; seed++ {
		bodies[seed] = make([]string, 2)
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(seed, rep int) {
				defer wg.Done()
				req := fmt.Sprintf(`{"run":"ablation-window","cycles":30000,"warmup":10000,"iterations":300,"stress_iterations":250,"benchmarks":["swim","gcc"],"seed":%d,"parallel":2}`, seed)
				code, body := postJSON(t, ts.URL+"/v1/sweep", req)
				if code != http.StatusOK {
					t.Errorf("seed %d rep %d: status %d: %s", seed, rep, code, body)
					return
				}
				bodies[seed][rep] = body
			}(seed, rep)
		}
	}
	// Hold every admitted leader at the gate, then release them together so
	// the memo lookups race: wire-level coalescing admits one leader per
	// distinct seed (the duplicate of each pair rides its leader's flight),
	// so exactly 3 requests reach the run-start hook.
	for i := 0; i < 3; i++ {
		<-started
	}
	close(gate)
	wg.Wait()

	for seed := range bodies {
		if bodies[seed][0] != bodies[seed][1] {
			t.Errorf("seed %d: concurrent responses differ", seed)
		}
		if bodies[seed][0] == "" {
			t.Errorf("seed %d: empty response", seed)
		}
	}
	after := experiments.MemoStats()
	if misses := after.Misses - before.Misses; misses != 3 {
		t.Errorf("memo misses = %d, want 3 (each distinct study computed exactly once; in-flight entries must survive capacity pressure)", misses)
	}
}

// TestServerSimulate: the single-run endpoint returns a deterministic
// JSON summary (identical across repeat requests) and validates input.
func TestServerSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})

	req := `{"workload":"stressmark","cycles":30000,"iterations":300,"control":true,"mechanism":"FU/DL1","delay":2}`
	code, body1 := postJSON(t, ts.URL+"/v1/simulate", req)
	if code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", code, body1)
	}
	var resp SimulateResponse
	if err := json.Unmarshal([]byte(body1), &resp); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, body1)
	}
	if resp.Workload != "stressmark" || resp.Cycles == 0 || resp.Instructions == 0 {
		t.Errorf("implausible summary: %+v", resp)
	}
	if resp.Control == nil || resp.Control.Mechanism != "FU/DL1" {
		t.Errorf("control summary missing or wrong: %+v", resp.Control)
	}

	_, body2 := postJSON(t, ts.URL+"/v1/simulate", req)
	if body1 != body2 {
		t.Errorf("repeat simulate responses differ:\n%s\n---\n%s", body1, body2)
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"no workload", `{"cycles":1000}`},
		{"unknown workload", `{"workload":"doom"}`},
		{"unknown mechanism", `{"workload":"stressmark","mechanism":"DVFS"}`},
	} {
		if code, body := postJSON(t, ts.URL+"/v1/simulate", tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, code, body)
		}
	}
}

// lockedBuffer is a log sink safe to read while handlers still write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerSimulatePanic: a simulation that panics answers 500, and a
// batch entry that panics an error record, each naming the panic value
// but carrying no stack frames — the stack goes to the server log. The
// panicking flight is finished, not left open: the same request again
// runs again (and panics again) instead of waiting on a dead leader.
func TestServerSimulatePanic(t *testing.T) {
	logs := &lockedBuffer{}
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, Logger: slog.New(slog.NewJSONHandler(logs, nil))})
	s.testSimulatePanic = "simulate exploded"

	req := `{"workload":"stressmark","cycles":20000,"iterations":150}`
	var bodies []string
	for range 2 {
		code, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if code != http.StatusInternalServerError || !strings.Contains(body, "panic: simulate exploded") {
			t.Fatalf("panicking simulate: status %d, want 500 naming the panic: %s", code, body)
		}
		bodies = append(bodies, body)
	}
	batch, err := json.Marshal(BatchRequest{Specs: []spec.RunSpec{tinySpec()}})
	if err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, ts.URL+"/v1/batch", string(batch))
	if code != http.StatusOK || !strings.Contains(body, `"status":"error"`) || !strings.Contains(body, "panic: simulate exploded") {
		t.Fatalf("panicking batch: status %d, want 200 with an error record naming the panic: %s", code, body)
	}
	bodies = append(bodies, body)
	for _, b := range bodies {
		if strings.Contains(b, "goroutine") || strings.Contains(b, ".go:") {
			t.Errorf("response carries stack frames:\n%s", b)
		}
	}
	if log := logs.String(); strings.Count(log, `"msg":"engine panic"`) != 3 || !strings.Contains(log, "simulateBody") {
		t.Errorf("server log lacks the three panics with their stacks:\n%s", log)
	}
}

// TestServerMetricsAndHealth: the observability endpoints serve without
// admission control and report service state.
func TestServerMetricsAndHealth(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, b)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, b)
	}
	if _, ok := snap.Counters["didtd.requests_total"]; !ok {
		t.Errorf("metrics missing didtd.requests_total: %s", b)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
}

// TestServerClientGoneAtGateReleasesSlot: regression for the unguarded
// test-hook channel operations in admit. The hook channels are unbuffered
// and sit on the path of every admitted request — including SSE progress
// streams — so a client that vanished while its request was parked on the
// run-start hook or the gate once wedged the only run slot forever. An
// abandoned request must release its slot so later requests still run.
func TestServerClientGoneAtGateReleasesSlot(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{MaxConcurrent: 1, QueueDepth: 0, Registry: reg})
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	s.testRunStarted = started
	s.testRunGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(`{"workload":"stressmark","cycles":20000,"iterations":200}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errs := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errs <- err
	}()
	<-started // the request holds the only run slot, parked on the gate
	cancel()  // the client walks away
	if err := <-errs; err == nil {
		t.Fatal("cancelled request unexpectedly completed")
	}
	// The abandoned request must give its slot back...
	waitForGauge(t, reg, "didtd.active_requests", 0)
	// ...so a fresh request is admitted and completes once the gate opens.
	close(gate)
	code, body := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"stressmark","cycles":20000,"iterations":200}`)
	if code != http.StatusOK {
		t.Fatalf("request after abandoned predecessor: status %d, want 200: %s", code, body)
	}
}
