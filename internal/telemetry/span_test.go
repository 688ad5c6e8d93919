package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

func TestSpanParentChildLinkage(t *testing.T) {
	tr := NewTracer(0)
	ctx := context.Background()
	ctx, root := tr.Start(ctx, "request", AttrStr("path", "/v1/sweep"))
	if root == nil {
		t.Fatal("enabled tracer returned nil root span")
	}
	cctx, child := tr.Start(ctx, "experiment", AttrStr("experiment", "fig2"))
	_, grand := tr.Start(cctx, "sim.job", AttrInt("index", 3))
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Fatalf("trace ids diverge: root=%s child=%s grand=%s",
			root.TraceID(), child.TraceID(), grand.TraceID())
	}
	grand.End()
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Completion order: grand, child, root.
	if spans[0].Name != "sim.job" || spans[1].Name != "experiment" || spans[2].Name != "request" {
		t.Fatalf("unexpected completion order: %v %v %v", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[2].ParentID != "" {
		t.Errorf("root span has parent %q", spans[2].ParentID)
	}
	if spans[1].ParentID != spans[2].SpanID {
		t.Errorf("child parent %q != root span id %q", spans[1].ParentID, spans[2].SpanID)
	}
	if spans[0].ParentID != spans[1].SpanID {
		t.Errorf("grandchild parent %q != child span id %q", spans[0].ParentID, spans[1].SpanID)
	}
	if spans[0].DurationNs < 0 {
		t.Errorf("negative duration %d", spans[0].DurationNs)
	}
}

func TestSpanAdoptsSeededTraceID(t *testing.T) {
	tr := NewTracer(0)
	id := NewTraceID()
	ctx := ContextWithTraceID(context.Background(), id)
	if got := TraceIDFromContext(ctx); got != id {
		t.Fatalf("seeded trace id not readable: got %q want %q", got, id)
	}
	sctx, s := tr.Start(ctx, "request")
	if s.TraceID() != id {
		t.Errorf("root span trace id %q does not adopt seeded id %q", s.TraceID(), id)
	}
	// With a span active, the span's id wins (they are equal here).
	if got := TraceIDFromContext(sctx); got != id {
		t.Errorf("TraceIDFromContext with active span = %q, want %q", got, id)
	}
	s.End()
}

func TestSpanDisabledAndNilTracer(t *testing.T) {
	var nilTr *Tracer
	ctx, s := nilTr.Start(context.Background(), "x", AttrStr("k", "v"))
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer mutated context")
	}
	s.End() // must not panic
	s.SetAttr("a", "b")
	if s.Enabled() {
		t.Error("nil span reports Enabled")
	}
	if s.TraceID() != "" || s.SpanID() != "" || s.DurationMS() != 0 {
		t.Error("nil span leaks ids or duration")
	}

	tr := NewTracer(0)
	tr.SetEnabled(false)
	_, s2 := tr.Start(context.Background(), "x")
	if s2 != nil {
		t.Fatal("disabled tracer returned non-nil span")
	}
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("disabled tracer recorded %d spans", n)
	}
}

func TestSpanRingBound(t *testing.T) {
	tr := NewTracer(0)
	tr.SetSpanRingCap(4)
	for i := 0; i < 10; i++ {
		_, s := tr.Start(context.Background(), "op", AttrInt("i", int64(i)))
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Ring keeps the most recent, oldest-first: i = 6..9.
	for k, want := range []string{"6", "7", "8", "9"} {
		if got := spans[k].Attrs[0].Value; got != want {
			t.Errorf("spans[%d] i=%s, want %s", k, got, want)
		}
	}
	// Shrinking keeps the most recent records.
	tr.SetSpanRingCap(2)
	spans = tr.Spans()
	if len(spans) != 2 || spans[0].Attrs[0].Value != "8" || spans[1].Attrs[0].Value != "9" {
		t.Fatalf("after shrink: %+v", spans)
	}
}

func TestSpanSetAttrAndEndIdempotent(t *testing.T) {
	tr := NewTracer(0)
	_, s := tr.Start(context.Background(), "op", AttrStr("outcome", "pending"))
	s.SetAttr("outcome", "ok")
	s.SetAttr("cache_hit", "true")
	s.End()
	s.SetAttr("outcome", "late") // after End: dropped
	s.End()                      // second End: no second record
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("End recorded %d spans, want 1", len(spans))
	}
	got := map[string]string{}
	for _, a := range spans[0].Attrs {
		got[a.Key] = a.Value
	}
	if got["outcome"] != "ok" || got["cache_hit"] != "true" {
		t.Errorf("attrs = %v", got)
	}
	if s.DurationMS() < 0 {
		t.Errorf("negative duration")
	}
}

func TestTraceIDFormat(t *testing.T) {
	hex32 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if !hex32.MatchString(id) {
			t.Fatalf("trace id %q is not 32 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
	tr := NewTracer(0)
	_, s := tr.Start(context.Background(), "op")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(s.SpanID()) {
		t.Fatalf("span id %q is not 16 hex chars", s.SpanID())
	}
	s.End()
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(0)
	ctx, root := tr.Start(context.Background(), "request", AttrStr("path", "/v1/sweep"))
	_, child := tr.Start(ctx, "experiment", AttrStr("experiment", "fig2"), AttrStr("cache_hit", "false"))
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	for _, k := range []string{"trace_id", "span_id", "name", "start_unix_ns", "duration_ns"} {
		if _, ok := first[k]; !ok {
			t.Errorf("line 1 missing %q: %s", k, lines[0])
		}
	}

	back, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Spans()
	if len(back) != len(orig) {
		t.Fatalf("round-trip lost records: %d != %d", len(back), len(orig))
	}
	for i := range back {
		a, _ := json.Marshal(back[i])
		b, _ := json.Marshal(orig[i])
		if !bytes.Equal(a, b) {
			t.Errorf("record %d differs after round-trip:\n%s\n%s", i, a, b)
		}
	}
}

func TestSpanChromeTrace(t *testing.T) {
	tr := NewTracer(0)
	ctx, root := tr.Start(context.Background(), "request")
	_, child := tr.Start(ctx, "experiment", AttrStr("experiment", "fig2"))
	child.End()
	root.End()
	// A second, unrelated trace gets its own thread row.
	_, other := tr.Start(context.Background(), "request")
	other.End()

	var buf bytes.Buffer
	if err := WriteSpanChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string                 `json:"name"`
			Phase string                 `json:"ph"`
			TID   int                    `json:"tid"`
			Dur   float64                `json:"dur"`
			Args  map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	var xEvents, metas int
	tids := map[int]bool{}
	for _, e := range out.TraceEvents {
		switch e.Phase {
		case "X":
			xEvents++
			tids[e.TID] = true
			if e.Args["trace_id"] == "" {
				t.Errorf("X event %q missing trace_id arg", e.Name)
			}
		case "M":
			metas++
		}
	}
	if xEvents != 3 {
		t.Errorf("got %d X events, want 3", xEvents)
	}
	if len(tids) != 2 {
		t.Errorf("got %d distinct tids, want 2 (one per trace)", len(tids))
	}
	if metas != 2 {
		t.Errorf("got %d thread_name metadata events, want 2", metas)
	}
}

func TestTimer(t *testing.T) {
	tm := StartTimer()
	if ms := tm.ElapsedMS(); ms < 0 {
		t.Errorf("negative elapsed %v", ms)
	}
}
