// Package telemetry is the simulator's observability layer: a
// zero-allocation ring-buffered cycle tracer with pluggable sinks (JSONL
// and Chrome trace-event format, loadable in Perfetto or chrome://tracing),
// a metrics registry (counters, gauges, bounded histograms) snapshotted
// into machine-readable run manifests, and a throttled stderr progress
// line for long parallel sweeps.
//
// The closed loop in internal/core emits typed events here — sensor-level
// changes, actuator engage/release, emergencies, phantom fires, voltage
// samples — but the whole layer is designed to vanish from the hot path
// when unused: every entry point is nil-safe, emission is guarded by a
// single atomic enabled flag, and events are fixed-size structs written
// into preallocated rings, so a disabled (or absent) tracer costs one
// pointer test plus one atomic load per guard.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSensorLevel records a sensor output transition; Arg is the new
	// sensor.Level (0 normal, 1 low, 2 high), Value the true voltage.
	KindSensorLevel Kind = iota + 1
	// KindGate records actuator clock-gating; Arg 1 = engage, 0 = release,
	// Value the voltage at the decision.
	KindGate
	// KindPhantom records phantom-firing; Arg 1 = engage, 0 = release.
	KindPhantom
	// KindEmergency records the supply leaving (Arg 1) or re-entering
	// (Arg 0) the allowed band; Value the voltage.
	KindEmergency
	// KindVoltage is a periodic supply-voltage sample in volts.
	KindVoltage
	// KindCurrent is a periodic processor-current sample in amperes.
	KindCurrent
	// KindQuadrantVoltage is a per-quadrant supply sample; Arg is the
	// quadrant index, Value the local voltage.
	KindQuadrantVoltage
	// KindMark is a generic instant marker; Arg and Value are free-form.
	KindMark
)

// String names the kind (stable identifiers used by the JSONL sink).
func (k Kind) String() string {
	switch k {
	case KindSensorLevel:
		return "sensor-level"
	case KindGate:
		return "gate"
	case KindPhantom:
		return "phantom"
	case KindEmergency:
		return "emergency"
	case KindVoltage:
		return "voltage"
	case KindCurrent:
		return "current"
	case KindQuadrantVoltage:
		return "quadrant-voltage"
	case KindMark:
		return "mark"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// kindFromString inverts String for the JSONL decoder.
func kindFromString(s string) (Kind, bool) {
	for k := KindSensorLevel; k <= KindMark; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one timestamped occurrence. The struct is fixed-size and
// pointer-free so rings of events never touch the garbage collector.
type Event struct {
	Cycle uint64
	Kind  Kind
	Arg   int32
	Value float64
}

// Tracer owns a set of per-run event streams behind one atomic enabled
// flag. The zero of *Tracer (nil) is a valid, permanently-disabled tracer:
// every method tolerates a nil receiver, so instrumented code never
// branches on configuration.
type Tracer struct {
	enabled atomic.Bool
	ringCap int

	mu      sync.Mutex
	streams []*Stream

	// Completed request spans (span.go) ride the same tracer behind the
	// same enabled flag, in their own ring: spans are written by many
	// request goroutines while streams are single-writer per system.
	spanMu   sync.Mutex
	spans    []SpanRecord
	spanHead int
	spanCap  int
}

// DefaultRingCap bounds each stream's ring when no capacity is given:
// enough to hold a full controller episode window at per-cycle sampling
// while keeping a many-stream sweep's footprint in tens of megabytes.
const DefaultRingCap = 1 << 16

// NewTracer creates an enabled tracer whose streams retain the most recent
// ringCap events each (ringCap <= 0 selects DefaultRingCap).
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	t := &Tracer{ringCap: ringCap}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether emission is on; nil-safe and callable from the
// hot path (one pointer test + one atomic load).
//
//didt:hotpath
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled flips emission; nil-safe no-op on a nil tracer.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Stream opens a named event stream (one per simulated system). Returns
// nil — itself a valid, disabled stream — when the tracer is nil. Streams
// are single-writer: each belongs to the goroutine running its system.
func (t *Tracer) Stream(name string) *Stream {
	if t == nil {
		return nil
	}
	if name == "" {
		name = "system"
	}
	// Rings start small and double up to the tracer's cap as events
	// arrive, so a sweep that builds hundreds of short-lived systems does
	// not pay the full ring per stream.
	initial := 1024
	if initial > t.ringCap {
		initial = t.ringCap
	}
	s := &Stream{t: t, name: name, buf: make([]Event, 0, initial)}
	t.mu.Lock()
	t.streams = append(t.streams, s)
	t.mu.Unlock()
	return s
}

// Streams returns the tracer's streams in a canonical deterministic order:
// sorted by name, ties broken by event count and then event content. Runs
// are deterministic regardless of worker count, so the multiset of streams
// a sweep produces is fixed — canonical ordering makes the serialized
// trace byte-identical at any -parallel setting.
func (t *Tracer) Streams() []*Stream {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]*Stream, len(t.streams))
	copy(out, t.streams)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Stream is one system's ring of events. Not safe for concurrent writers;
// the tracer-level enabled flag is the only shared state it reads.
type Stream struct {
	t     *Tracer
	name  string
	buf   []Event
	head  int    // next write position once the ring is saturated
	total uint64 // events emitted over the stream's lifetime
}

// Name returns the stream name ("" for a nil stream).
func (s *Stream) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Enabled reports whether the owning tracer is emitting; nil-safe.
//
//didt:hotpath
func (s *Stream) Enabled() bool { return s != nil && s.t.enabled.Load() }

// Emit appends an event, overwriting the oldest once the ring is full.
// No-op (and allocation-free) on a nil or disabled stream.
//
//didt:hotpath
func (s *Stream) Emit(cycle uint64, k Kind, arg int32, value float64) {
	if s == nil || !s.t.enabled.Load() {
		return
	}
	e := Event{Cycle: cycle, Kind: k, Arg: arg, Value: value}
	switch {
	case len(s.buf) < cap(s.buf):
		s.buf = append(s.buf, e) //didt:allow hotpath -- len<cap is checked the line above: this append is provably in-place
	case cap(s.buf) < s.t.ringCap:
		grown := cap(s.buf) * 2
		if grown > s.t.ringCap {
			grown = s.t.ringCap
		}
		nb := make([]Event, len(s.buf), grown)
		copy(nb, s.buf)
		s.buf = append(nb, e) //didt:allow hotpath -- nb was just sized with spare capacity; amortized ring growth capped at ringCap
	default:
		s.buf[s.head] = e
		s.head++
		if s.head == len(s.buf) {
			s.head = 0
		}
	}
	s.total++
}

// Events returns the retained events in chronological order.
func (s *Stream) Events() []Event {
	if s == nil {
		return nil
	}
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.head:]...)
	out = append(out, s.buf[:s.head]...)
	return out
}

// Total reports how many events were ever emitted; Total - len(Events())
// is the number dropped by the ring bound.
func (s *Stream) Total() uint64 {
	if s == nil {
		return 0
	}
	return s.total
}

// Dropped reports how many events the ring bound discarded.
func (s *Stream) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.total - uint64(len(s.buf))
}

// less is the canonical stream order used by Streams.
func (s *Stream) less(o *Stream) bool {
	if s.name != o.name {
		return s.name < o.name
	}
	a, b := s.Events(), o.Events()
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			ea, eb := a[i], b[i]
			if ea.Cycle != eb.Cycle {
				return ea.Cycle < eb.Cycle
			}
			if ea.Kind != eb.Kind {
				return ea.Kind < eb.Kind
			}
			if ea.Arg != eb.Arg {
				return ea.Arg < eb.Arg
			}
			return ea.Value < eb.Value
		}
	}
	return false
}
