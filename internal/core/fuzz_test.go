package core

import (
	"encoding/json"
	"testing"

	"didt/internal/spec"
)

// FuzzSpecNewSystem feeds arbitrary JSON down the path every API boundary
// takes: decode into a spec.RunSpec, Resolve (defaults, then Validate),
// then core.NewSystem on every spec that resolves. Neither step may panic:
// a spec that Validate accepts either builds or returns an error. The
// committed corpus holds the resolved default spec
// (internal/spec/testdata/default_spec.json), a sparse one, a controlled
// one, a three-rail spec with coupling, per-rail sensing and DVS, and
// three with a negative unit count or fetch-queue length (once accepted by
// Validate, then a makeslice panic in cpu.New);
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
		if sys, err := NewSystem(prog, Options{Spec: r}); err == nil {
			sys.Close()
		}
	})
}
