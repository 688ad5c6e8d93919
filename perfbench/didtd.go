package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"didt/internal/server"
	"didt/internal/spec"
	"didt/internal/store"
	"didt/internal/telemetry"
)

// clients is the closed-loop client count of didtd-cold: one connection
// per CPU of the 2-CPU host the benchmark was sized on, enough for the
// coalesced pairs and the batch pool without needing more threads than the
// machine has.
const clients = 2

// warmClients is didtd-warm's timed client count. Its requests cost tens of
// microseconds, so with two connections the client and the server contend
// for both CPUs and hit latency mostly measures scheduling: run to run, it
// varied about five times as much as with one.
const warmClients = 1

var (
	didtdCold = workloadDef{
		name: "didtd-cold",
		why:  "engine-bound serving: distinct simulate specs run and stored, coalesced pairs, and /v1/batch through the worker pool",
		run:  runDidtdCold,
	}
	didtdWarm = workloadDef{
		name: "didtd-warm",
		why:  "serving with no engine work: HTTP, admission gate, store reads and ETag/304 over a pre-run key set",
		run:  runDidtdWarm,
		// Its requests take tens of microseconds: the loopback round trip,
		// not compute, is what the host slows.
		netBound: true,
	}
)

// didtd is an in-process server over a real on-disk store, behind a
// loopback listener, with a client limited to `clients` connections.
type didtd struct {
	reg    *telemetry.Registry
	ts     *httptest.Server
	client *http.Client
}

func startDidtd(dir string) (*didtd, error) {
	reg := telemetry.NewRegistry()
	st, err := store.Open(dir, store.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Parallel: clients, MaxConcurrent: clients, Store: st, Registry: reg})
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &didtd{reg: reg, ts: httptest.NewServer(srv.Handler()), client: &http.Client{Transport: tr}}, nil
}

// close shuts the listener down, waiting for in-flight requests.
func (d *didtd) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
}

type reply struct {
	status int
	body   []byte
	etag   string
	source string
	dur    time.Duration
}

func (d *didtd) do(method, path string, body []byte, ifNoneMatch string) (reply, error) {
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{
		status: resp.StatusCode,
		body:   b,
		etag:   resp.Header.Get("ETag"),
		source: resp.Header.Get("X-Didtd-Result-Source"),
		dur:    time.Since(t0),
	}, nil
}

// onEachClient runs f once per client connection, concurrently, and
// returns when all have finished.
func onEachClient(n int, f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// specGen generates distinct spec-form simulate requests from a seeded
// stream. Control is on for three specs in four and the profiles cycle
// through a seeded order, so every seed gives the same mix of expensive
// and cheap requests.
type specGen struct {
	rng      *rand.Rand
	profiles []string
	n        int64
	base     int64
	cycles   uint64
}

// newSpecGen starts a generator; stream separates the key sets of one
// seed's workloads.
func newSpecGen(seed, stream int64, cycles uint64) *specGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + stream))
	profiles := []string{"stressmark", "gcc", "swim", "mcf", "galgel", "art"}
	rng.Shuffle(len(profiles), func(i, j int) { profiles[i], profiles[j] = profiles[j], profiles[i] })
	return &specGen{rng: rng, profiles: profiles, base: seed<<24 + stream<<48, cycles: cycles}
}

var mechanisms = []string{"FU", "FU/DL1", "FU/DL1/IL1", "ideal"}

// next returns a spec no earlier call returned: the spec seed, part of
// the key, is unique per call.
func (g *specGen) next() spec.RunSpec {
	i := g.n
	g.n++
	sp := runSpec(g.profiles[i%int64(len(g.profiles))], g.cycles, 3000, 2.0,
		i%4 != 3, mechanisms[g.rng.Intn(len(mechanisms))], g.rng.Intn(4))
	return seeded(sp, g.base+i)
}

// request is a generated spec with its wire body and the key the server
// must answer under.
type request struct {
	spec spec.RunSpec
	key  string
	body []byte
}

func (g *specGen) request() (request, error) {
	sp := g.next()
	resolved, err := sp.Resolve()
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(server.SimulateRequest{Spec: &sp})
	if err != nil {
		return request{}, err
	}
	return request{spec: sp, key: resolved.Key(), body: body}, nil
}

// specKeyOf reads the spec_key field of a simulate response body.
func specKeyOf(body []byte) string {
	var v struct {
		SpecKey string `json:"spec_key"`
	}
	if json.Unmarshal(body, &v) != nil {
		return ""
	}
	return v.SpecKey
}

// answer is what the server returned for one key.
type answer struct {
	req  request
	body []byte
	etag string
}

// results collects simulate replies from concurrent clients, checking
// each one.
type results struct {
	r *runner

	mu      sync.Mutex
	answers map[string]answer    // key -> first 200
	bySrc   map[string][]float64 // X-Didtd-Result-Source -> latencies (ms)
	traced  []float64            // run-sourced latencies of span-sampled requests
	sent    int
}

func newResults(r *runner) *results {
	return &results{r: r, answers: map[string]answer{}, bySrc: map[string][]float64{}}
}

// simulate sends one spec-form simulate request and checks that the
// answer is a 200 carrying the request's key, byte-identical to every
// earlier answer for that key. One request in 64 is traced.
func (res *results) simulate(d *didtd, req request) {
	res.mu.Lock()
	sampled := res.sent%64 == 0
	res.sent++
	res.mu.Unlock()
	end := func() {}
	if sampled {
		_, end = res.r.span(res.r.ctx, "request", telemetry.AttrStr("path", "/v1/simulate"))
	}
	rep, err := d.do(http.MethodPost, "/v1/simulate", req.body, "")
	end()

	res.mu.Lock()
	defer res.mu.Unlock()
	r := res.r
	r.attempted++
	switch {
	case err != nil:
		r.fail("simulate: %v", err)
		return
	case rep.status != http.StatusOK:
		r.fail("simulate: status %d: %s", rep.status, rep.body)
		return
	case specKeyOf(rep.body) != req.key:
		r.fail("simulate: answered key %q, sent %q", specKeyOf(rep.body), req.key)
		return
	}
	if prev, ok := res.answers[req.key]; ok && !bytes.Equal(prev.body, rep.body) {
		r.fail("simulate: two different bodies for key %s", req.key)
		return
	}
	res.answers[req.key] = answer{req: req, body: rep.body, etag: rep.etag}
	res.bySrc[rep.source] = append(res.bySrc[rep.source], ms(rep.dur))
	if sampled && rep.source == "run" {
		res.traced = append(res.traced, ms(rep.dur))
	}
}

// closedLoop sends reqs over the client connections, each client sending
// its next request as soon as its previous one is answered.
func (res *results) closedLoop(d *didtd, reqs []request) {
	var next atomic.Int64
	onEachClient(clients, func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(reqs) {
				return
			}
			res.simulate(d, reqs[i])
		}
	})
}

// firstControlled is the spec the per-layer replay steps for a didtd
// workload: the first controlled spec its generator produced.
func firstControlled(reqs []request) (spec.RunSpec, error) {
	for _, q := range reqs {
		if q.spec.Control.Enabled {
			return q.spec, nil
		}
	}
	return spec.RunSpec{}, fmt.Errorf("no controlled spec generated")
}

func runDidtdCold(r *runner) error {
	opts := r.opts
	dir, err := os.MkdirTemp(opts.workdir, "didtd-cold-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDidtd(dir)
	if err != nil {
		return err
	}
	defer d.close()

	gen := newSpecGen(opts.seed, 0, opts.size.simCycles)
	res := newResults(r)
	var sent []request
	var restarts []float64
	r.inPause = restartSampler(r, dir, &restarts)
	if err := r.pause(true); err != nil {
		return err
	}
	paused0 := r.paused
	before := snapshot(d.reg)
	start := time.Now()
	// Simulate phase, in groups of four: both connections send the first
	// spec at once (one runs it, the other coalesces onto that run), then
	// the other three go out closed-loop.
	for len(sent) == 0 || time.Since(start).Seconds() < 0.7*opts.seconds {
		group := make([]request, 4)
		for i := range group {
			if group[i], err = gen.request(); err != nil {
				return err
			}
		}
		onEachClient(clients, func(int) { res.simulate(d, group[0]) })
		res.closedLoop(d, group[1:])
		sent = append(sent, group...)
		if err := r.pause(false); err != nil {
			return err
		}
	}
	// Batch phase: one client posts batches of new specs; the server fans
	// each out over its worker pool.
	var batchDur time.Duration
	var batchFirst []answer
	entries := 0
	for entries == 0 || time.Since(start).Seconds() < opts.seconds {
		reqs := make([]request, opts.size.batchEntries)
		for i := range reqs {
			if reqs[i], err = gen.request(); err != nil {
				return err
			}
		}
		first, dur, err := batch(r, d, reqs)
		if err != nil {
			return err
		}
		batchDur += dur
		entries += len(reqs)
		batchFirst = append(batchFirst, first)
		if err := r.pause(false); err != nil {
			return err
		}
	}
	delta := counters{}
	delta.add(before, snapshot(d.reg))
	if err := r.pause(true); err != nil {
		return err
	}
	elapsed := time.Since(start) - (r.paused - paused0)
	ops := res.sent + len(batchFirst)

	r.attempted++
	distinct := len(sent) + entries
	if runs := delta["server.engine_runs_per_op"]; runs != float64(distinct) {
		r.fail("engine ran %.0f times for %d distinct specs", runs, distinct)
	}
	// Conditional repeats answer 304; a batch entry and a later single
	// request for its spec answer the same bytes.
	for _, q := range sent[:min(8, len(sent))] {
		a := res.answers[q.key]
		rep, err := d.do(http.MethodPost, "/v1/simulate", a.req.body, a.etag)
		r.attempted++
		if err != nil || rep.status != http.StatusNotModified {
			r.fail("conditional repeat of %s: status %d, err %v", q.key, rep.status, err)
		}
	}
	for _, a := range batchFirst {
		rep, err := d.do(http.MethodPost, "/v1/simulate", a.req.body, "")
		r.attempted++
		var compact bytes.Buffer
		if err == nil {
			err = json.Compact(&compact, rep.body)
		}
		if err != nil || rep.source != "store" || !bytes.Equal(compact.Bytes(), a.body) {
			r.fail("batch entry %s: later simulate answered from %q with different bytes (err %v)", a.req.key, rep.source, err)
		}
	}
	d.close()
	if err := checkRestart(r, dir, res.answers[sent[0].key]); err != nil {
		return err
	}

	cold := res.bySrc["run"]
	if len(cold) == 0 {
		return fmt.Errorf("no request was answered by an engine run")
	}
	delivered := len(cold) + len(res.bySrc["coalesced"]) + len(res.bySrc["store"]) + entries
	r.metrics["setup_s"] = median(restarts)
	r.metrics["op_mean_ms"] = mean(cold)
	r.metrics["ops_per_s"] = float64(delivered) / elapsed.Seconds()
	r.detail["op"] = "a spec-form /v1/simulate answered by an engine run"
	r.detail["cold_ms"] = summarize(cold)
	r.detail["coalesced_ms"] = summarize(res.bySrc["coalesced"])
	r.detail["batch_entries"] = entries
	r.detail["batch_entries_per_s"] = float64(entries) / batchDur.Seconds()
	r.detail["distinct_specs"] = distinct
	r.detail["sim_mcycles_per_s"] = delta["core.cycles_per_op"] / 1e6 / elapsed.Seconds()
	if r.tracer == nil {
		return nil
	}
	perOp(r.metrics, delta, ops)
	r.metrics["trace.overhead_pct"] = overheadPct(res.traced, cold)
	replay, err := firstControlled(sent)
	if err != nil {
		return err
	}
	return r.measureLayers(replay)
}

// batch posts one /v1/batch of reqs and checks that every entry is
// answered once, successfully, under its own key. It returns the first
// entry, with its compacted body, for a later cross-check against
// /v1/simulate.
func batch(r *runner, d *didtd, reqs []request) (answer, time.Duration, error) {
	specs := make([]spec.RunSpec, len(reqs))
	for i, q := range reqs {
		specs[i] = q.spec
	}
	body, err := json.Marshal(server.BatchRequest{Specs: specs})
	if err != nil {
		return answer{}, 0, err
	}
	_, end := r.span(r.ctx, "request", telemetry.AttrStr("path", "/v1/batch"))
	rep, err := d.do(http.MethodPost, "/v1/batch", body, "")
	end()
	r.attempted++
	first := answer{req: reqs[0]}
	if err != nil || rep.status != http.StatusOK {
		r.fail("batch: status %d, err %v", rep.status, err)
		return first, rep.dur, nil
	}
	seen := make([]bool, len(reqs))
	sc := bufio.NewScanner(bytes.NewReader(rep.body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec server.BatchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Index < 0 || rec.Index >= len(reqs) || seen[rec.Index] {
			r.fail("batch: bad record %s", sc.Bytes())
			continue
		}
		seen[rec.Index] = true
		if rec.Status != "ok" || rec.SpecKey != reqs[rec.Index].key || specKeyOf(rec.Body) != rec.SpecKey {
			r.fail("batch: entry %d: status %q, key %q: %s", rec.Index, rec.Status, rec.SpecKey, rec.Error)
		}
		if rec.Index == 0 {
			first.body = rec.Body
		}
	}
	for i, ok := range seen {
		if !ok {
			r.fail("batch: no record for entry %d", i)
		}
	}
	return first, rep.dur, nil
}

func runDidtdWarm(r *runner) error {
	opts := r.opts
	dir, err := os.MkdirTemp(opts.workdir, "didtd-warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDidtd(dir)
	if err != nil {
		return err
	}
	defer d.close()

	// Untimed: run every key once so the store holds it.
	gen := newSpecGen(opts.seed, 1, opts.size.simCycles)
	reqs := make([]request, opts.size.warmKeys)
	for i := range reqs {
		if reqs[i], err = gen.request(); err != nil {
			return err
		}
	}
	res := newResults(r)
	res.closedLoop(d, reqs)
	var restarts []float64
	r.inPause = restartSampler(r, dir, &restarts)
	if len(res.answers) != len(reqs) {
		return fmt.Errorf("pre-run stored %d of %d keys", len(res.answers), len(reqs))
	}

	// Timed: the client picks keys uniformly; half the requests carry
	// the key's ETag and must answer 304, the rest must answer the stored
	// bytes from the store.
	type clientLog struct {
		rng                  *rand.Rand
		hits, notMod, traced []float64
		sent                 int
		failures             []string
	}
	logs := make([]clientLog, warmClients)
	for c := range logs {
		logs[c].rng = rand.New(rand.NewSource(opts.seed*7919 + int64(c)))
	}
	if err := r.pause(true); err != nil {
		return err
	}
	paused0 := r.paused
	before := snapshot(d.reg)
	start := time.Now()
	end := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	// The phase runs in segments with a pause between them.
	for seg := 0; seg == 0 || time.Now().Before(end); seg++ {
		segEnd := time.Now().Add(pauseInterval)
		if segEnd.After(end) {
			segEnd = end
		}
		onEachClient(warmClients, func(c int) {
			lg := &logs[c]
			for first := true; first || time.Now().Before(segEnd); first = false {
				a := res.answers[reqs[lg.rng.Intn(len(reqs))].key]
				conditional := lg.rng.Intn(2) == 0
				inm := ""
				if conditional {
					inm = a.etag
				}
				endSpan := func() {}
				sampled := lg.sent%64 == 0
				if sampled {
					_, endSpan = r.span(r.ctx, "request", telemetry.AttrStr("path", "/v1/simulate"))
				}
				rep, err := d.do(http.MethodPost, "/v1/simulate", a.req.body, inm)
				endSpan()
				lg.sent++
				switch {
				case err != nil:
					lg.failures = append(lg.failures, err.Error())
				case conditional && rep.status == http.StatusNotModified:
					lg.notMod = append(lg.notMod, ms(rep.dur))
				case !conditional && rep.status == http.StatusOK && rep.source == "store" && bytes.Equal(rep.body, a.body):
					lg.hits = append(lg.hits, ms(rep.dur))
					if sampled {
						lg.traced = append(lg.traced, ms(rep.dur))
					}
				default:
					lg.failures = append(lg.failures, fmt.Sprintf("key %s conditional=%v: status %d from %q", a.req.key, conditional, rep.status, rep.source))
				}
			}
		})
		if err := r.pause(true); err != nil {
			return err
		}
	}
	elapsed := time.Since(start) - (r.paused - paused0)
	delta := counters{}
	delta.add(before, snapshot(d.reg))
	var hits, notMod, traced []float64
	sent := 0
	for _, lg := range logs {
		hits, notMod, traced = append(hits, lg.hits...), append(notMod, lg.notMod...), append(traced, lg.traced...)
		sent += lg.sent
		r.attempted += lg.sent
		for _, f := range lg.failures {
			r.fail("warm request: %s", f)
		}
	}
	r.attempted++
	if runs := delta["server.engine_runs_per_op"]; runs != 0 {
		r.fail("engine ran %.0f times while every key was stored", runs)
	}
	d.close()
	if err := checkRestart(r, dir, res.answers[reqs[0].key]); err != nil {
		return err
	}
	if len(hits) == 0 {
		return fmt.Errorf("no request was answered from the store")
	}

	r.metrics["setup_s"] = median(restarts)
	r.metrics["op_mean_ms"] = mean(hits)
	r.metrics["ops_per_s"] = float64(sent) / elapsed.Seconds()
	r.detail["op"] = "a /v1/simulate answered 200 from the store"
	r.detail["hit_ms"] = summarize(hits)
	r.detail["not_modified_ms"] = summarize(notMod)
	if r.tracer == nil {
		return nil
	}
	perOp(r.metrics, delta, sent)
	r.metrics["trace.overhead_pct"] = overheadPct(traced, hits)
	replay, err := firstControlled(reqs)
	if err != nil {
		return err
	}
	return r.measureLayers(replay)
}

// restartSampler returns a pause hook that restarts didtd over the store
// in dir size.restarts times — store.Open, server.New and a listener up to
// the first 200 from /healthz — appending each restart's seconds to
// samples. Sampling in the pauses spreads the samples over the run, so
// the run's slowness applies to them. A second instance over the live
// store's directory is safe there: no request, and so no write, is in
// flight.
func restartSampler(r *runner, dir string, samples *[]float64) func() error {
	return func() error {
		for k := 0; k < r.opts.size.restarts; k++ {
			t0 := time.Now()
			d, err := startDidtd(dir)
			if err != nil {
				return err
			}
			rep, err := d.do(http.MethodGet, "/healthz", nil, "")
			*samples = append(*samples, time.Since(t0).Seconds())
			d.close()
			r.attempted++
			if err != nil || rep.status != http.StatusOK {
				r.fail("restart: /healthz status %d, err %v", rep.status, err)
			}
		}
		return nil
	}
}

// checkRestart restarts didtd over the store in dir and checks that it
// answers known from the store with the bytes it was first answered with.
func checkRestart(r *runner, dir string, known answer) error {
	d, err := startDidtd(dir)
	if err != nil {
		return err
	}
	defer d.close()
	rep, err := d.do(http.MethodPost, "/v1/simulate", known.req.body, "")
	r.attempted++
	if err != nil || rep.source != "store" || !bytes.Equal(rep.body, known.body) {
		r.fail("restart: %s answered from %q with different bytes (err %v)", known.req.key, rep.source, err)
	}
	return nil
}
