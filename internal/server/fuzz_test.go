package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzDecodeRequests feeds arbitrary bodies to the request decoders of
// /v1/simulate, /v1/sweep and /v1/batch (endpoint%3 picks one) — every
// step a request takes before it admits work. None may panic. A rejected
// body must be answered 400 or 413 with the error envelope; an accepted
// one must leave the response untouched and decode to work the engine can
// take: a validated spec with a program, a validated sweep over known
// experiments, or batch entries that each become exactly one error record
// or one job index. The committed corpus (testdata/fuzz/FuzzDecodeRequests)
// holds a valid and an invalid body per endpoint, plus simulate specs
// whose PDN kernel cap is past pdn.MaxKernelTaps and whose resonant period
// is past pdn.MaxResonantPeriod; `go test -fuzz FuzzDecodeRequests
// ./internal/server` explores further.
func FuzzDecodeRequests(f *testing.F) {
	paths := [3]string{"/v1/simulate", "/v1/sweep", "/v1/batch"}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		kind := endpoint % 3
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, paths[kind], bytes.NewReader(body))
		var ok bool
		switch kind {
		case 0:
			req, resolved, program, accepted := decodeSimulate(rec, r)
			if ok = accepted; ok {
				if err := resolved.Validate(); err != nil {
					t.Fatalf("accepted simulate spec fails Validate: %v", err)
				}
				if len(program) == 0 {
					t.Fatal("accepted simulate request has an empty program")
				}
				if req.Spec == nil && req.Workload == "" {
					t.Fatal("accepted flat simulate request names no workload")
				}
			}
		case 1:
			_, cfg, ids, _, accepted := decodeSweep(rec, r, 2)
			if ok = accepted; ok {
				if len(ids) == 0 {
					t.Fatal("accepted sweep names no experiment")
				}
				if err := cfg.Validate(); err != nil {
					t.Fatalf("accepted sweep config fails Validate: %v", err)
				}
				if cfg.Parallel < 1 {
					t.Fatalf("accepted sweep has parallel %d", cfg.Parallel)
				}
			}
		case 2:
			req, accepted := decodeBatch(rec, r)
			if ok = accepted; ok {
				n := len(req.Specs)
				if n < 1 || n > maxBatchEntries {
					t.Fatalf("accepted batch has %d entries", n)
				}
				invalid, jobs, deduped := resolveBatch(req.Specs)
				seen := make([]int, n)
				for _, rec := range invalid {
					seen[rec.Index]++
				}
				indexes := 0
				for _, j := range jobs {
					if err := j.resolved.Validate(); err != nil || len(j.program) == 0 {
						t.Fatalf("batch job %s: Validate %v, program length %d", j.key, err, len(j.program))
					}
					for _, i := range j.indexes {
						seen[i]++
					}
					indexes += len(j.indexes)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("batch entry %d answered %d times", i, c)
					}
				}
				if deduped != indexes-len(jobs) {
					t.Fatalf("deduped %d, want %d", deduped, indexes-len(jobs))
				}
			}
		}
		if ok {
			if rec.Body.Len() != 0 || rec.Code != http.StatusOK {
				t.Fatalf("accepted %s body wrote a response: %d %q", paths[kind], rec.Code, rec.Body.String())
			}
			return
		}
		want := codeBadRequest
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusRequestEntityTooLarge:
			want = codePayloadTooLarge
		default:
			t.Fatalf("rejected %s body answered %d", paths[kind], rec.Code)
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code != want || env.Error == "" {
			t.Fatalf("rejected %s body: envelope %+v (%v), want code %s", paths[kind], env, err, want)
		}
	})
}

// TestDecodeRejectsUnboundedKernel: a simulate spec whose PDN kernel cap
// exceeds pdn.MaxKernelTaps is a 400 at decode time, before it can size an
// impulse response of ~7e7 taps. The same body is in the fuzz corpus.
func TestDecodeRejectsUnboundedKernel(t *testing.T) {
	body := `{"spec":{"pdn":{"params":{"MaxKernelLen":1073741824,"ClockHz":1e13,"TruncRelTol":1e-300}}}}`
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	if _, _, _, ok := decodeSimulate(rec, r); ok || rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "MaxKernelLen") {
		t.Fatalf("accepted=%v, answered %d %q; want a 400 naming MaxKernelLen", ok, rec.Code, rec.Body.String())
	}
}

// TestDecodeRejectsLongResonantPeriod: a simulate spec whose PDN resonant
// period is past pdn.MaxResonantPeriod is a 400 at decode time, before a
// threshold solve could step its scenarios for 14 periods of 3e9 cycles.
// The same body is in the fuzz corpus.
func TestDecodeRejectsLongResonantPeriod(t *testing.T) {
	body := `{"spec":{"pdn":{"params":{"ResonantHz":1}},"control":{"enabled":true}}}`
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	if _, _, _, ok := decodeSimulate(rec, r); ok || rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "resonant period") {
		t.Fatalf("accepted=%v, answered %d %q; want a 400 naming the resonant period", ok, rec.Code, rec.Body.String())
	}
}
