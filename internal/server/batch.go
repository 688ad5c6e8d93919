package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"didt/internal/isa"
	"didt/internal/sim"
	"didt/internal/spec"
)

// Batch limits: a batch body may carry thousands of specs, so it gets a
// larger decode bound than the single-request endpoints, and the entry
// count is capped so one request cannot queue unbounded work behind one
// admission slot.
const (
	maxBatchEntries = 4096
	batchBodyLimit  = 16 << 20
)

// BatchRequest submits many simulations in one call. Every entry is a
// complete RunSpec (the spec form of /v1/simulate; flat fields are not
// accepted here) and is answered by one NDJSON record on the response
// stream, in completion order.
type BatchRequest struct {
	Specs []spec.RunSpec `json:"specs"`
	// TimeoutMS bounds the whole batch (0 = server default deadline).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchRecord is one line of the NDJSON batch response. Index is the
// entry's position in the request; identical specs collapse into one
// simulation but still answer one record each. Body, when status is
// "ok", is the exact /v1/simulate spec-form response object (compacted
// onto the single line).
type BatchRecord struct {
	Index   int             `json:"index"`
	SpecKey string          `json:"spec_key,omitempty"`
	Status  string          `json:"status"` // "ok" or "error"
	Body    json.RawMessage `json:"body,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// batchJob is one deduplicated unit of work: a resolved spec plus every
// request index that asked for it.
type batchJob struct {
	key      string
	resolved spec.RunSpec
	program  isa.Program
	indexes  []int
}

// decodeBatch decodes a /v1/batch body and checks its entry count. On a
// bad body it has written the error envelope and returns ok false.
func decodeBatch(w http.ResponseWriter, r *http.Request) (req BatchRequest, ok bool) {
	if !decodeJSONLimit(w, r, &req, batchBodyLimit) {
		return req, false
	}
	if len(req.Specs) == 0 {
		writeError(w, r, http.StatusBadRequest, codeBadRequest,
			"didtd: bad request: batch names no specs")
		return req, false
	}
	if len(req.Specs) > maxBatchEntries {
		writeError(w, r, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("didtd: bad request: batch has %d entries (max %d)", len(req.Specs), maxBatchEntries))
		return req, false
	}
	return req, true
}

// resolveBatch resolves every entry up front: invalid entries become
// immediate error records without costing any work, and valid duplicates
// collapse into one job answering all their indexes (deduped counts the
// collapsed entries).
func resolveBatch(specs []spec.RunSpec) (invalid []*BatchRecord, jobs []*batchJob, deduped int) {
	invalid = make([]*BatchRecord, 0)
	byKey := map[string]*batchJob{}
	for i, sp := range specs {
		resolved, err := sp.Resolve()
		var program isa.Program
		if err == nil {
			program, err = resolved.Program()
		}
		if err != nil {
			invalid = append(invalid, &BatchRecord{Index: i, Status: "error", Error: "bad spec: " + err.Error()})
			continue
		}
		key := resolved.Key()
		if j := byKey[key]; j != nil {
			deduped++
			j.indexes = append(j.indexes, i)
			continue
		}
		j := &batchJob{key: key, resolved: resolved, program: program, indexes: []int{i}}
		byKey[key] = j
		jobs = append(jobs, j)
	}
	return invalid, jobs, deduped
}

// handleBatch runs up to maxBatchEntries simulate specs under a single
// admission slot, streaming one NDJSON record per entry in completion
// order. Identical specs are deduplicated into one job, and each job
// resolves through the same store+singleflight path as /v1/simulate — a
// batch entry warms the store for later single requests and vice versa.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBatch(w, r)
	if !ok {
		return
	}
	if !s.acceptWork(w, r) {
		return
	}
	// One admission slot covers the whole batch: the batch is one client
	// occupying the service, however many entries it carries.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	invalid, jobs, deduped := resolveBatch(req.Specs)
	s.mBatchEntries.Add(int64(len(req.Specs)))
	s.mBatchDeduped.Add(int64(deduped))

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(rec *BatchRecord) {
		enc.Encode(rec)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, rec := range invalid {
		emit(rec)
	}

	if len(jobs) == 0 {
		setOutcome(r.Context(), "ok")
		return
	}

	// Fan the jobs out over a bounded worker pool. The results channel is
	// buffered to len(jobs), so a worker's send never blocks and every
	// worker exits as soon as the shared index counter runs dry — on
	// cancellation the jobs themselves fail fast (fetch and sim.Map both
	// check the dead context), so the pool drains promptly.
	type outcome struct {
		slot int
		res  wireResult
		err  error
	}
	results := make(chan outcome, len(jobs))
	var next atomic.Int64
	workers := s.cfg.Parallel
	if workers <= 0 {
		workers = sim.DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for wkr := 0; wkr < workers; wkr++ {
		go func() {
			for {
				slot := int(next.Add(1)) - 1
				if slot >= len(jobs) {
					return
				}
				j := jobs[slot]
				// The batch already holds the admission slot, so each job
				// fetches with no admit hook; the store and singleflight
				// still apply, shared with /v1/simulate.
				res, _, err := s.fetch(ctx, simulateStoreKey(j.key, true), nil,
					func() ([]byte, error) { return s.simulateBody(ctx, j.resolved, j.program, true) })
				results <- outcome{slot: slot, res: res, err: err}
			}
		}()
	}

	emitted := make([]bool, len(jobs))
	for done := 0; done < len(jobs); done++ {
		select {
		case o := <-results:
			emitted[o.slot] = true
			j := jobs[o.slot]
			for _, idx := range j.indexes {
				if o.err != nil {
					emit(&BatchRecord{Index: idx, SpecKey: j.key, Status: "error", Error: o.err.Error()})
					continue
				}
				// The stored body is indented JSON (newlines included);
				// compact it onto the record's single NDJSON line.
				var body bytes.Buffer
				if err := json.Compact(&body, o.res.body); err != nil {
					emit(&BatchRecord{Index: idx, SpecKey: j.key, Status: "error", Error: "render: " + err.Error()})
					continue
				}
				emit(&BatchRecord{Index: idx, SpecKey: j.key, Status: "ok", Body: body.Bytes()})
			}
		case <-ctx.Done():
			// The deadline (or client) killed the batch: answer every
			// not-yet-emitted entry with the context error so the record
			// count always matches the request, then stop. The workers die
			// on their own — their remaining fetches fail instantly.
			for slot, j := range jobs {
				if emitted[slot] {
					continue
				}
				for _, idx := range j.indexes {
					emit(&BatchRecord{Index: idx, SpecKey: j.key, Status: "error", Error: ctx.Err().Error()})
				}
			}
			setOutcome(r.Context(), "error")
			return
		}
	}
	setOutcome(r.Context(), "ok")
}
