package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. A Span measures one timed operation of a serving-path
// request (HTTP handling, admission wait, one experiment render, one sweep
// job, a memo-cache decision), linked into a trace by a shared trace_id
// and parent span ids. Spans ride the same *Tracer as the cycle streams
// and inherit its cost contract: every entry point is nil-safe, emission
// is behind the tracer's single atomic enabled flag, and call sites guard
// with Enabled() (enforced by the didtlint telemetryguard analyzer for
// Tracer.Start and Span.End) so a disabled tracer never even evaluates
// attribute arguments.
//
// Spans deliberately record wall-clock time — that is their whole point —
// which is why every clock read lives in this file, inside the telemetry
// package, with an explicit determinism exemption: span data flows to
// logs, /v1/spans exports and metrics, never into experiment result bytes.
//
// Propagation is via context.Context: ContextWithTracer carries the
// tracer into deep layers (the sweep engine starts per-job spans from it),
// Start links child spans to the parent span already in the context, and
// ContextWithTraceID seeds the trace id for layers — like access logging —
// that need request correlation even when span recording is off.

// Attr is one span attribute. Values are pre-rendered strings so records
// stay pointer-light and serialization is trivially canonical.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// AttrStr builds a string attribute.
func AttrStr(k, v string) Attr { return Attr{Key: k, Value: v} }

// AttrInt builds an integer attribute.
func AttrInt(k string, v int64) Attr { return Attr{Key: k, Value: formatInt(v)} }

// formatInt is strconv.FormatInt(v, 10) without pulling strconv into the
// struct-literal call path (kept tiny and allocation-predictable).
func formatInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// idState generates process-unique trace and span ids: an 8-byte random
// process nonce (crypto/rand, drawn once) plus an atomic counter. Ids are
// correlation keys for logs and span exports only — they never reach
// experiment output, so their uniqueness matters and their sequence does
// not.
var idState struct {
	once  sync.Once
	nonce uint64
	ctr   atomic.Uint64
}

func idNonce() uint64 {
	idState.once.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			idState.nonce = binary.LittleEndian.Uint64(b[:])
		} else {
			idState.nonce = 0x9e3779b97f4a7c15 // degraded but still counting
		}
	})
	return idState.nonce
}

// NewTraceID returns a fresh 32-hex-character trace id, unique within and
// across processes (random nonce ++ counter).
func NewTraceID() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], idNonce())
	binary.BigEndian.PutUint64(b[8:], idState.ctr.Add(1))
	return hex.EncodeToString(b[:])
}

func newSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], idState.ctr.Add(1))
	return hex.EncodeToString(b[:])
}

// Context plumbing. Keys are unexported struct types per the context docs.
type (
	ctxKeyTracer  struct{}
	ctxKeySpan    struct{}
	ctxKeyTraceID struct{}
)

// ContextWithTracer returns a context carrying the tracer, making it
// reachable by deep layers (sim.Map starts per-job spans from it). A nil
// tracer is fine — lookups return nil and every span call degrades to a
// pointer test.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, ctxKeyTracer{}, t)
}

// TracerFromContext returns the context's tracer, or nil.
func TracerFromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(ctxKeyTracer{}).(*Tracer)
	return t
}

// ContextWithSpan returns a context carrying span as the current parent.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKeySpan{}, s)
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKeySpan{}).(*Span)
	return s
}

// ContextWithTraceID returns a context carrying a request-scoped trace id,
// for correlation layers (access logs, error envelopes) that must agree
// with span records. Start adopts this id for root spans.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyTraceID{}, id)
}

// TraceIDFromContext returns the context's trace id: the current span's if
// one is active, the seeded request id otherwise, "" when neither exists.
func TraceIDFromContext(ctx context.Context) string {
	if s := SpanFromContext(ctx); s != nil {
		return s.traceID
	}
	id, _ := ctx.Value(ctxKeyTraceID{}).(string)
	return id
}

// Span is one in-flight timed operation. Created by Tracer.Start, closed
// by End; single-goroutine between the two (like a Stream, a span belongs
// to the goroutine running its operation). The nil *Span is a valid,
// permanently-disabled span.
type Span struct {
	t        *Tracer
	traceID  string
	spanID   string
	parentID string
	name     string
	start    time.Time
	dur      time.Duration
	attrs    []Attr
	ended    bool
}

// DefaultSpanRingCap bounds the tracer's completed-span ring when no
// capacity is set: deep enough for thousands of requests' worth of spans
// while keeping a long-lived server's footprint bounded.
const DefaultSpanRingCap = 1 << 12

// SetSpanRingCap rebounds the completed-span ring (n <= 0 selects
// DefaultSpanRingCap). Existing records are kept up to the new bound.
func (t *Tracer) SetSpanRingCap(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultSpanRingCap
	}
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	t.spanCap = n
	if len(t.spans) > n {
		// Keep the most recent n records, oldest-first.
		ordered := append(t.spans[t.spanHead:], t.spans[:t.spanHead]...)
		t.spans = append([]SpanRecord(nil), ordered[len(ordered)-n:]...)
		t.spanHead = 0
	}
}

// Start opens a span named name under t. Nil or disabled tracers return
// (ctx, nil) untouched; call sites still guard with t.Enabled() — enforced
// by didtlint — so attribute construction costs nothing when tracing is
// off. The span's trace id comes from the parent span in ctx, else the
// context's seeded trace id, else a fresh one; the returned context
// carries the new span as parent for nested Starts.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	s := &Span{
		t:     t,
		name:  name,
		start: time.Now(), //didt:allow determinism,purity -- spans exist to measure wall-clock request latency; they feed logs and span exports, never result bytes
		attrs: attrs,
	}
	if parent := SpanFromContext(ctx); parent != nil {
		s.traceID, s.parentID = parent.traceID, parent.spanID
	} else if id := TraceIDFromContext(ctx); id != "" {
		s.traceID = id
	} else {
		s.traceID = NewTraceID()
	}
	s.spanID = newSpanID()
	return ContextWithSpan(ctx, s), s
}

// Enabled reports whether this span is live and its tracer still emitting;
// nil-safe, the guard didtlint requires in front of End.
func (s *Span) Enabled() bool { return s != nil && s.t.enabled.Load() }

// TraceID returns the span's trace id ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's id ("" for a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// SetAttr adds (or overwrites) an attribute on an un-ended span; nil-safe.
func (s *Span) SetAttr(k, v string) {
	if s == nil || s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].Key == k {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: k, Value: v})
}

// End closes the span, stamping its duration and appending the record to
// the tracer's ring. Nil-safe and idempotent: only the first End records.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start) //didt:allow determinism,purity -- span durations are the observability payload; they never reach result bytes
	s.t.recordSpan(SpanRecord{
		TraceID:       s.traceID,
		SpanID:        s.spanID,
		ParentID:      s.parentID,
		Name:          s.name,
		StartUnixNano: s.start.UnixNano(),
		DurationNs:    s.dur.Nanoseconds(),
		Attrs:         s.attrs,
	})
}

// DurationMS reports the ended span's duration in milliseconds (0 before
// End or on a nil span) — the one clock surface callers may consume, so
// histograms and log fields agree with the span record without reading
// wall clocks outside telemetry.
func (s *Span) DurationMS() float64 {
	if s == nil {
		return 0
	}
	return float64(s.dur) / 1e6
}

// SpanRecord is one completed span, the unit of the JSONL export.
type SpanRecord struct {
	TraceID       string `json:"trace_id"`
	SpanID        string `json:"span_id"`
	ParentID      string `json:"parent_id,omitempty"`
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_ns"`
	DurationNs    int64  `json:"duration_ns"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// recordSpan appends a completed span, overwriting the oldest once the
// ring is full.
func (t *Tracer) recordSpan(r SpanRecord) {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	if t.spanCap <= 0 {
		t.spanCap = DefaultSpanRingCap
	}
	if len(t.spans) < t.spanCap {
		t.spans = append(t.spans, r)
	} else {
		t.spans[t.spanHead] = r
		t.spanHead++
		if t.spanHead == len(t.spans) {
			t.spanHead = 0
		}
	}
}

// Spans returns the retained completed spans in completion order;
// nil-safe.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	out := make([]SpanRecord, 0, len(t.spans))
	out = append(out, t.spans[t.spanHead:]...)
	out = append(out, t.spans[:t.spanHead]...)
	return out
}

// Timer measures one wall-clock interval for operational metrics and log
// fields. It exists so serving-path packages never read clocks themselves:
// the only wall-clock calls stay inside telemetry, where the determinism
// exemptions are audited in one place.
type Timer struct{ start time.Time }

// StartTimer begins an interval.
func StartTimer() Timer {
	return Timer{start: time.Now()} //didt:allow determinism -- feeds request-latency metrics and log fields only, never result bytes
}

// ElapsedMS reports milliseconds since StartTimer.
func (t Timer) ElapsedMS() float64 {
	return float64(time.Since(t.start)) / 1e6 //didt:allow determinism -- feeds request-latency metrics and log fields only, never result bytes
}
