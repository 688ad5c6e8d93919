package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"
)

// Host normalization. A core of a shared host flips between a fast and a
// slow state (about 30% apart, on a scale of a fraction of a second to
// minutes), so two runs of the same code differ by more than any useful
// regression bound. Every run therefore pauses between its operations to
// time two reference kernels that call none of the repository's code — a
// CPU kernel and a loopback HTTP round trip — and reports its end-to-end
// times scaled to the nominal speeds below: a run on a host running 20%
// slow reports what it would have measured at nominal speed. Measured
// over many runs, the geometric mean of the two references tracked the
// sweeps and didtd-cold best, and the HTTP reference alone tracked
// didtd-warm best. The raw values stay in the detail record.
//
// Latencies are reported as means, not medians, for the same reason: an
// operation much shorter than a host state falls wholly in one state, so
// its latency distribution is a mixture of two modes whose median jumps
// between them as the share of slow time moves, while the mean moves in
// proportion to that share — which is what the references measure.

// Nominal reference speeds (passes or round trips per second), the
// medians measured on the 2-CPU Xeon host the bounds in BENCHMARK.json
// were set on.
const (
	nominalCPUSpeed  = 8000
	nominalEchoSpeed = 34000
)

// pauseInterval is the least time between two unforced pauses.
const pauseInterval = 1500 * time.Millisecond

// refTable is the CPU kernel's lookup table: 1 MiB, larger than a core's
// private caches, like the simulator's own working set.
var refTable = func() []uint32 {
	t := make([]uint32, 1<<18)
	rng := rand.New(rand.NewSource(1))
	for i := range t {
		t[i] = rng.Uint32()
	}
	return t
}()

var refSink uint64

// refPass is one pass of the CPU kernel: data-dependent table loads with
// unpredictable branches, then a floating-point multiply-add chain — the
// two kinds of work the simulator's cycle loop does.
func refPass() {
	x := uint32(2463534242)
	var acc uint64
	for i := 0; i < 1<<14; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := refTable[x&(1<<18-1)]
		if v&3 == 0 {
			acc += uint64(v)
		} else {
			acc ^= uint64(v) << 1
		}
	}
	f := 0.0
	for i := 0; i < 1<<14; i++ {
		f = f*0.999999 + float64(i&1023)
	}
	refSink += acc + uint64(f)
}

// echoRef is the network reference: a handler that answers a fixed
// simulate-sized body, over loopback, one connection.
type echoRef struct {
	ts     *httptest.Server
	client *http.Client
	req    []byte
}

func newEchoRef() *echoRef {
	body := bytes.Repeat([]byte("x"), 900)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(body)
	}))
	return &echoRef{ts: ts, client: &http.Client{Transport: &http.Transport{}}, req: bytes.Repeat([]byte("y"), 2000)}
}

func (e *echoRef) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
}

// roundTrip posts one request and reads the answer.
func (e *echoRef) roundTrip() error {
	resp, err := e.client.Post(e.ts.URL, "application/json", bytes.NewReader(e.req))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// rate runs f repeatedly for about d, after one untimed call, and returns
// calls per second.
func rate(d time.Duration, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		if err := f(); err != nil {
			return 0, err
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// pause is taken between a workload's operations, at most once per
// pauseInterval unless forced. It ends the current memory window (the
// peak RSS since the previous pause), returns free memory to the OS and
// restarts the peak mark for the next window, times both reference
// kernels, and runs the workload's inPause hook. The time it takes is
// excluded from the workload's timed phase.
func (r *runner) pause(force bool) error {
	if !force && time.Since(r.lastPause) < pauseInterval {
		return nil
	}
	t0 := time.Now()
	if !r.lastPause.IsZero() {
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.rssPeaks = append(r.rssPeaks, peak)
	}
	// Without a reset each window's peak is the process's peak so far.
	r.rssWindowed = resetPeakRSS()
	d := r.opts.size.refSample
	cpu, err := rate(d, func() error { refPass(); return nil })
	if err != nil {
		return err
	}
	echo, err := rate(d, r.echo.roundTrip)
	if err != nil {
		return err
	}
	r.cpuSpeeds, r.echoSpeeds = append(r.cpuSpeeds, cpu), append(r.echoSpeeds, echo)
	if r.inPause != nil {
		if err := r.inPause(); err != nil {
			return err
		}
	}
	r.lastPause = time.Now()
	r.paused += r.lastPause.Sub(t0)
	return nil
}

// slowness is how much slower than nominal the host ran over the pauses,
// as the mean time per call of a reference relative to nominal: for a
// netBound workload the HTTP reference's, otherwise the geometric mean of
// both references'. Dividing a time by it, or multiplying a rate, gives
// the value at nominal speed.
func (r *runner) slowness(netBound bool) float64 {
	if len(r.cpuSpeeds) == 0 {
		return 1
	}
	meanTime := func(speeds []float64) float64 {
		t := 0.0
		for _, s := range speeds {
			t += 1 / s
		}
		return t / float64(len(speeds))
	}
	echo := meanTime(r.echoSpeeds) * nominalEchoSpeed
	if netBound {
		return echo
	}
	return math.Sqrt(meanTime(r.cpuSpeeds) * nominalCPUSpeed * echo)
}
