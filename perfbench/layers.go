package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"didt/internal/control"
	"didt/internal/core"
	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
	"didt/internal/server"
	"didt/internal/spec"
	"didt/internal/store"
	"didt/internal/telemetry"
)

// replayChunk is the cycles each layer runs back to back in the replay:
// enough that one timing covers hundreds of calls, few enough that the
// chunk's per-cycle activity records (about 200 bytes each) stay in cache.
const replayChunk = 512

// measureLayers fills the engine, set-up and didtd per-layer metrics for
// one representative controlled single-rail spec.
func (r *runner) measureLayers(sp spec.RunSpec) error {
	sp.Budget.MaxCycles = uint64(r.opts.size.replayCycles)
	sp.Budget.WarmupCycles = 1000
	sp, err := sp.Resolve()
	if err != nil {
		return err
	}
	if !sp.Control.Enabled || sp.PDN.MultiRail() {
		return fmt.Errorf("replay spec must be controlled and single-rail")
	}
	prog, err := sp.Program()
	if err != nil {
		return err
	}
	if err := r.replay(sp, prog); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := r.setupProbes(sp, prog); err != nil {
		return fmt.Errorf("set-up probes: %w", err)
	}
	if err := r.serverProbes(sp); err != nil {
		return fmt.Errorf("server probes: %w", err)
	}
	return nil
}

// replayLayers names the replay's timed blocks in loop order; each is
// reported as <name>_ns_per_cycle.
var replayLayers = []string{"core.coupled", "cpu.step", "power.step", "pdn.stream", "sensor.sense", "control.policy"}

// replay steps one system through the coupled loop a chunk at a time,
// recording every CycleState, and after each chunk drives a second,
// identically built system through the same cycles one layer at a time,
// feeding each layer the recorded inputs of the one before. Alternating
// chunk by chunk means the coupled and the layered timings see the same
// host; short chunks keep each layer's buffers in cache, as they are in the
// fused loop. Every block is timed and traced as its own span, and the
// replayed currents, voltages, levels and actuation must equal the
// recording bit for bit.
func (r *runner) replay(sp spec.RunSpec, prog isa.Program) error {
	ctx, end := r.span(r.ctx, "replay", telemetry.AttrStr("spec", sp.Workload.Name))
	defer end()
	a, err := core.NewSystem(prog, core.Options{Spec: sp})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := core.NewSystem(prog, core.Options{Spec: sp})
	if err != nil {
		return err
	}
	defer b.Close()
	mech, err := sp.Mechanism()
	if err != nil {
		return err
	}
	n := r.opts.size.replayCycles
	var (
		rec      = make([]core.CycleState, 0, n)
		pol      control.Policy
		acts     = make([]cpu.Activity, replayChunk)
		done     = make([]bool, replayChunk)
		cur      = make([]float64, replayChunk)
		volt     = make([]float64, replayChunk)
		lvl      = make([]sensor.Level, replayChunk)
		gates    = make([]cpu.Gating, replayChunk)
		phantoms = make([]power.Phantom, replayChunk)
		spent    = make([]time.Duration, len(replayLayers))
		// The loop's state entering a chunk: what the controller chose on
		// the cycle before it.
		prevGate    cpu.Gating
		prevPhantom power.Phantom
		mismatches  int
	)
	// The blocks are written out rather than passed as closures, so each
	// is timed as the plain loop it is.
	var t0 time.Time
	var endBlock func()
	begin := func(i, base int) {
		_, endBlock = r.span(ctx, replayLayers[i], telemetry.AttrInt("cycle", int64(base)))
		t0 = time.Now()
	}
	finish := func(i int) {
		spent[i] += time.Since(t0)
		endBlock()
	}
	// A chunk shorter than replayChunk means the program finished.
	for base := 0; base < n && len(rec) == base; base += replayChunk {
		begin(0, base)
		for j := 0; j < min(replayChunk, n-base); j++ {
			st := a.StepCycle()
			rec = append(rec, st)
			if st.Done {
				break
			}
		}
		finish(0)
		seg := rec[base:]
		m := len(seg)

		begin(1, base)
		g := prevGate
		for j := 0; j < m; j++ {
			b.CPU.SetGating(g)
			done[j] = b.CPU.StepInto(&acts[j])
			g = seg[j].Gating
		}
		finish(1)

		begin(2, base)
		ph := prevPhantom
		for j := 0; j < m; j++ {
			cur[j] = b.Power.Step(&acts[j], ph).Current
			ph = seg[j].Phantom
		}
		finish(2)

		begin(3, base)
		for j := 0; j < m; j++ {
			volt[j] = b.Sim.Step(cur[j])
		}
		finish(3)

		begin(4, base)
		for j := 0; j < m; j++ {
			lvl[j] = b.Sensor.Sense(volt[j])
		}
		finish(4)

		begin(5, base)
		for j := 0; j < m; j++ {
			gate, phantom := pol.Update(lvl[j] == sensor.Low, lvl[j] == sensor.High)
			g, p := mech.Respond(lvl[j])
			if !gate {
				g = cpu.Gating{}
			}
			if !phantom {
				p = power.Phantom{}
			}
			gates[j], phantoms[j] = g, p
		}
		finish(5)

		for j, st := range seg {
			if done[j] != st.Done || cur[j] != st.Current || volt[j] != st.Voltage ||
				lvl[j] != st.Level || gates[j] != st.Gating || phantoms[j] != st.Phantom {
				mismatches++
			}
		}
		prevGate, prevPhantom = seg[m-1].Gating, seg[m-1].Phantom
	}

	cycles := float64(len(rec))
	overhead := spent[0]
	for i, name := range replayLayers {
		r.metrics[name+"_ns_per_cycle"] = float64(spent[i]) / cycles
		if i > 0 {
			overhead -= spent[i]
		}
	}
	r.metrics["core.loop_overhead_ns_per_cycle"] = float64(overhead) / cycles
	r.detail["replay_cycles"] = len(rec)
	r.detail["replay_mismatches"] = mismatches
	r.attempted++
	if mismatches > 0 {
		r.fail("replay: %d of %d cycles differ from the coupled run", mismatches, len(rec))
	}

	r.kernels(b.Net, rec)
	return r.telemetryOff(sp, prog, len(rec))
}

// kernels times the convolution paths the coupled replay does not take on
// the recorded current trace: the lockstep batch kernel at widths 8 and 4,
// the FFT block convolution, and a two-rail coupled graph step.
func (r *runner) kernels(net *pdn.Network, rec []core.CycleState) {
	n := len(rec)
	currents := make([]float64, n)
	for i, st := range rec {
		currents[i] = st.Current
	}
	lane0 := make([]float64, n)
	for _, w := range []int{8, 4} {
		bs := net.NewBatchSimulator(w)
		in, out := make([]float64, w), make([]float64, w)
		_, end := r.span(r.ctx, fmt.Sprintf("pdn.batch%d", w))
		t0 := time.Now()
		for i, c := range currents {
			for l := range in {
				in[l] = c
			}
			bs.Step(in, out)
			lane0[i] = out[0]
		}
		r.metrics[fmt.Sprintf("pdn.batch%d_ns_per_lane_cycle", w)] = float64(time.Since(t0)) / float64(n*w)
		end()
		r.attempted++
		for i, st := range rec {
			if lane0[i] != st.Voltage {
				r.fail("batch%d lane 0 differs from the streaming voltage at cycle %d", w, i)
				break
			}
		}
	}

	fft := make([]float64, n)
	_, end := r.span(r.ctx, "pdn.fft")
	t0 := time.Now()
	net.ConvolveVoltages(fft, currents)
	r.metrics["pdn.fft_ns_per_sample"] = float64(time.Since(t0)) / float64(n)
	end()
	r.attempted++
	for i, st := range rec {
		// The documented FFT-versus-streaming agreement.
		if math.Abs(fft[i]-st.Voltage) > 1e-9 {
			r.fail("fft voltage differs from streaming by %g V at cycle %d", fft[i]-st.Voltage, i)
			break
		}
	}

	g, err := pdn.NewGraph([]pdn.Rail{{Name: "core", Net: net}, {Name: "uncore", Net: net}},
		[][]float64{{0, 0.1}, {0.1, 0}})
	if err != nil {
		r.attempted++
		r.fail("graph: %v", err)
		return
	}
	gs := g.NewSimulator()
	defer gs.Release()
	in, out := make([]float64, 2), make([]float64, 2)
	_, end = r.span(r.ctx, "pdn.graph")
	t0 = time.Now()
	for _, c := range currents {
		in[0], in[1] = 0.7*c, 0.3*c
		gs.Step(in, out)
	}
	r.metrics["pdn.graph_ns_per_cycle"] = float64(time.Since(t0)) / float64(n)
	end()
}

// telemetryOff interleaves chunks of StepCycle on a system with a disabled
// cycle tracer attached against one with none, alternating which runs
// first, and reports the disabled tracer's cost in percent.
func (r *runner) telemetryOff(sp spec.RunSpec, prog isa.Program, cycles int) error {
	off := telemetry.NewTracer(0)
	off.SetEnabled(false)
	withOff, err := core.NewSystem(prog, core.Options{Spec: sp, Telemetry: off, TelemetryName: "perfbench"})
	if err != nil {
		return err
	}
	defer withOff.Close()
	bare, err := core.NewSystem(prog, core.Options{Spec: sp})
	if err != nil {
		return err
	}
	defer bare.Close()
	var tOff, tBare time.Duration
	step := func(s *core.System, m int) time.Duration {
		t0 := time.Now()
		for j := 0; j < m; j++ {
			s.StepCycle()
		}
		return time.Since(t0)
	}
	for k, base := 0, 0; base < cycles; k, base = k+1, base+replayChunk {
		m := min(replayChunk, cycles-base)
		if k%2 == 0 {
			tOff += step(withOff, m)
			tBare += step(bare, m)
		} else {
			tBare += step(bare, m)
			tOff += step(withOff, m)
		}
	}
	r.metrics["telemetry.off_overhead_pct"] = 100 * (float64(tOff)/float64(tBare) - 1)
	return nil
}

// setupProbes times the pieces of per-run set-up from cold: program
// generation, core.NewSystem, the envelope probe inside it (cold NewSystem
// minus NewSystem with only the envelope cache warm), PDN calibration and
// the threshold solve. Each is the median of setupReps samples.
func (r *runner) setupProbes(sp spec.RunSpec, prog isa.Program) error {
	_, end := r.span(r.ctx, "setup")
	defer end()
	var gen, cold, warmEnv, calib, solve []float64
	for k := 0; k < r.opts.size.setupReps; k++ {
		resetCaches()
		t0 := time.Now()
		if _, err := sp.Program(); err != nil {
			return err
		}
		gen = append(gen, ms(time.Since(t0)))

		resetCaches()
		t0 = time.Now()
		sys, err := core.NewSystem(prog, core.Options{Spec: sp})
		if err != nil {
			return err
		}
		cold = append(cold, ms(time.Since(t0)))
		sys.Close()

		resetCaches("core_envelope")
		t0 = time.Now()
		sys, err = core.NewSystem(prog, core.Options{Spec: sp})
		if err != nil {
			return err
		}
		warmEnv = append(warmEnv, ms(time.Since(t0)))

		iMin, iMax := sys.Envelope()
		params := sp.PDN.Params
		params.IFloor = 0.5 * (iMin + iMax)
		resetCaches()
		t0 = time.Now()
		net, err := pdn.Calibrate(params, iMin, iMax, sp.PDN.ImpedancePct)
		if err != nil {
			return err
		}
		calib = append(calib, ms(time.Since(t0)))

		mech, err := sp.Mechanism()
		if err != nil {
			return err
		}
		floor, ceil := mech.Envelope(sys.Power)
		sys.Close()
		resetCaches()
		t0 = time.Now()
		_, err = control.NewSolver(net).Solve(control.Envelope{
			IMin: iMin, IMax: iMax, Floor: floor, Ceil: ceil, Settle: sp.Control.SettleCycles,
		}, sp.Sensor.DelayCycles)
		if err != nil {
			return err
		}
		solve = append(solve, ms(time.Since(t0)))
	}
	r.metrics["workload.generate_ms"] = median(gen)
	r.metrics["core.new_system_ms"] = median(cold)
	r.metrics["core.envelope_probe_ms"] = median(cold) - median(warmEnv)
	r.metrics["pdn.calibrate_ms"] = median(calib)
	r.metrics["control.solve_ms"] = median(solve)
	return nil
}

// serverProbes times didtd's store and handler directly: Store.Get and
// Store.Put on a side store with a real simulate body, and the handler's
// store-hit and 304 paths through ServeHTTP on a recorder, with no socket.
func (r *runner) serverProbes(sp spec.RunSpec) error {
	_, end := r.span(r.ctx, "server.probes")
	defer end()
	dir, err := os.MkdirTemp(r.opts.workdir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := telemetry.NewRegistry()
	st, err := store.Open(dir, store.Options{Registry: reg})
	if err != nil {
		return err
	}
	h := server.New(server.Config{Parallel: 1, MaxConcurrent: 1, Store: st, Registry: reg}).Handler()
	reqBody, err := json.Marshal(server.SimulateRequest{Spec: &sp})
	if err != nil {
		return err
	}
	serve := func(ifNoneMatch string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(reqBody))
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	first := serve("")
	if first.Code != http.StatusOK {
		return fmt.Errorf("simulate: status %d: %s", first.Code, first.Body)
	}
	body, etag := first.Body.Bytes(), first.Header().Get("ETag")

	var hits, notMod, gets, puts []float64
	for k := 0; k < r.opts.size.probeReps; k++ {
		t0 := time.Now()
		rr := serve("")
		hits = append(hits, float64(time.Since(t0))/1e3)
		r.attempted++
		if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), body) || rr.Header().Get("X-Didtd-Result-Source") != "store" {
			r.fail("handler hit: status %d, source %q", rr.Code, rr.Header().Get("X-Didtd-Result-Source"))
		}
		t0 = time.Now()
		rr = serve(etag)
		notMod = append(notMod, float64(time.Since(t0))/1e3)
		r.attempted++
		if rr.Code != http.StatusNotModified {
			r.fail("handler conditional: status %d, want 304", rr.Code)
		}
	}
	const key = "perfbench|probe"
	for k := 0; k < r.opts.size.probeReps; k++ {
		if k < max(r.opts.size.probeReps/10, 1) {
			t0 := time.Now()
			if _, err := st.Put(fmt.Sprintf("%s|%d", key, k), body); err != nil {
				return err
			}
			puts = append(puts, ms(time.Since(t0)))
		}
		t0 := time.Now()
		got, _, ok := st.Get(key + "|0")
		gets = append(gets, float64(time.Since(t0))/1e3)
		if !ok || !bytes.Equal(got, body) {
			return fmt.Errorf("store get returned a different body")
		}
	}
	r.metrics["server.handler_hit_us"] = median(hits)
	r.metrics["server.handler_304_us"] = median(notMod)
	r.metrics["store.get_us"] = median(gets)
	r.metrics["store.put_ms"] = median(puts)
	return nil
}
