package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"didt/internal/actuator"
	"didt/internal/sim"
	"didt/internal/spec"
	"didt/internal/telemetry"
	"didt/internal/workload"
)

// FuzzSpecNewSystem feeds arbitrary JSON down the path every API boundary
// takes: decode into a spec.RunSpec, Resolve (defaults, then Validate),
// then core.NewSystem on every spec that resolves. Neither step may panic:
// a spec that Validate accepts either builds or returns an error, and that
// error is not a *sim.PanicError (the engine caches contain a panic in
// their computations, the threshold solve among them, as one). The
// committed corpus holds the resolved default spec
// (internal/spec/testdata/default_spec.json), a sparse one, a controlled
// one, a three-rail spec with coupling, per-rail sensing and DVS, and
// three with a negative unit count or fetch-queue length (once accepted by
// Validate, then a makeslice panic in cpu.New), one whose PDN kernel cap
// would have sampled ~7e7 taps, one whose 3e9-cycle resonant period would
// have made the threshold solve run for days and one whose zero-cycle
// period divided by zero in it (all three now rejected by Validate);
// `go test -fuzz FuzzSpecNewSystem ./internal/core` explores further.
func FuzzSpecNewSystem(f *testing.F) {
	prog := alternator(2)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp spec.RunSpec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		r, err := sp.Resolve()
		if err != nil {
			return
		}
		sys, err := NewSystem(prog, Options{Spec: r})
		if pe := (*sim.PanicError)(nil); errors.As(err, &pe) {
			t.Fatalf("NewSystem panicked: %v\n%s", pe.Value, pe.Stack)
		}
		if err == nil {
			sys.Close()
		}
	})
}

// replayFuzzSpec decodes a one-rail run spec from fuzzer bytes (short
// inputs are zero-padded): the workload (stressmark or a SPEC profile),
// impedance in [1, 5), whether control is on, sensor delay 0-6 and noise
// 0-20 mV, the mechanism, flush recovery, the seed, and a budget of
// 2,000-50,000 cycles with a fifth of it warm-up.
func replayFuzzSpec(data []byte) spec.RunSpec {
	var b [9]byte
	copy(b[:], data)
	names := append([]string{"stressmark"}, workload.Names()...)
	mechs := append(actuator.Granularities(), actuator.Ideal)
	var s spec.RunSpec
	s.Workload.Name = names[int(b[0])%len(names)]
	s.PDN.ImpedancePct = 1 + float64(b[1])/64
	s.Control.Enabled = b[2]&1 != 0
	s.Sensor.DelayCycles = int(b[2]>>1) % 7
	s.Sensor.NoiseMV = float64(b[3] % 21)
	s.Actuator.Mechanism = mechs[int(b[4])%len(mechs)].Name
	s.Control.FlushRecovery = b[4]&0x80 != 0
	s.Seed = spec.NewSeed(int64(binary.LittleEndian.Uint16(b[5:])) + 1)
	s.Budget.MaxCycles = 2000 + uint64(binary.LittleEndian.Uint16(b[7:]))%48001
	s.Budget.WarmupCycles = s.Budget.MaxCycles / 5
	return s
}

// FuzzReplayMatchesStepwise is the replay path's differential test: a
// one-rail spec decoded by replayFuzzSpec runs once replayed from the
// machine trace its open-loop twin has just cached — the whole run when
// open loop, until control first acts when controlled — and once forced
// onto the stepped path by an enabled tracer. Every Result field must
// agree. The committed corpus holds an open-loop run, a controlled run
// that never acts, and two that act: at sensor delay 3 with flush
// recovery, and at delay 1 (two-cycle blocks); `go test -fuzz
// FuzzReplayMatchesStepwise ./internal/core` explores further.
func FuzzReplayMatchesStepwise(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := replayFuzzSpec(data).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s at %g%%, control %v, delay %d, noise %g mV, %s, flush %v, %d cycles",
			r.Workload.Name, r.PDN.ImpedancePct, r.Control.Enabled, r.Sensor.DelayCycles, r.Sensor.NoiseMV,
			r.Actuator.Mechanism, r.Control.FlushRecovery, r.Budget.MaxCycles)
		prog, err := r.Program()
		if err != nil {
			t.Fatal(err)
		}
		run := func(opts Options) *Result {
			t.Helper()
			sys, err := NewSystem(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		twin := r
		twin.Control.Enabled = false
		run(Options{Spec: twin})
		runs0, _, _ := replayCounters()
		replayed := run(Options{Spec: r})
		if runs, _, _ := replayCounters(); runs-runs0 != 1 {
			t.Fatalf("%s: run did not replay the cached machine trace", name)
		}
		stepped := run(Options{Spec: r, Telemetry: telemetry.NewTracer(1 << 10), TelemetryName: "stepped"})
		if d := resultDiff(replayed, stepped); d != "" {
			t.Fatalf("%s: replay differs from the stepped path: %s", name, d)
		}
	})
}
