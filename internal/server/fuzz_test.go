package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
// holds a valid and an invalid body per endpoint; `go test -fuzz
// FuzzDecodeRequests ./internal/server` explores further.
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
