// Package sim is the parallel sweep engine: every experiment in the suite
// is a sweep of independent closed-loop simulations (table2 alone is 26
// benchmarks x 4 impedance points), and this package fans those jobs out
// across a bounded worker pool while preserving the determinism contract —
// results come back in submission order, so parallel output is
// byte-identical to serial output.
//
// Two pieces:
//
//   - Map / Sweep: run n independent jobs with bounded parallelism and
//     return their results in submission order regardless of completion
//     order. Workers <= 0 selects the process-wide default (GOMAXPROCS
//     unless overridden by SetDefaultWorkers, e.g. from a -parallel flag).
//   - Cache: a singleflight memoization cache for the deterministic
//     derived artifacts the sweeps share (sampled PDN kernels, generated
//     workload programs, measured current envelopes); concurrent callers
//     of the same key compute it exactly once.
package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"didt/internal/telemetry"
)

// defaultWorkers holds the process-wide worker default; <= 0 means
// GOMAXPROCS at sweep time.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count used when a
// sweep is invoked with workers <= 0. n <= 0 restores GOMAXPROCS.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers reports the effective default worker count.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// resolveWorkers clamps a requested worker count to [1, n].
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Pool observability: per-session job counters feeding an optional
// progress callback (a live stderr line in the CLIs and didtd), plus
// worker-pool metrics in the default telemetry registry. Both are
// aggregate-only and never influence scheduling, so they cannot perturb
// the determinism contract.
var (
	curProgress atomic.Pointer[progressSession]

	poolMetricsOnce sync.Once
	mJobs, mSweeps  *telemetry.Counter
	// Monotonic rate sources: the point-in-time gauges below answer "what
	// is happening now", but a scraper needs counters to derive rates from
	// two samples, so completions and queue-wait accumulate forever.
	mJobsCompleted *telemetry.Counter
	mQueueWaitNs   *telemetry.Counter
	gUndispatched  *telemetry.Gauge
	gWorkers       *telemetry.Gauge
	hUtilization   *telemetry.Histogram
)

// progressSession binds the cumulative done/total job counters to the
// callback they feed. Each Map captures the session current at its entry
// and reports against that session exclusively for its whole lifetime, so
// installing a new callback mid-sweep never zeroes (or re-homes) counters
// a running sweep is still adding to — the invariant done <= total holds
// within every session.
type progressSession struct {
	fn    func(done, total int64)
	done  atomic.Int64
	total atomic.Int64
}

func (s *progressSession) addTotal(n int64) {
	if s != nil {
		s.total.Add(n)
		s.notify()
	}
}

func (s *progressSession) addDone(n int64) {
	if s != nil {
		s.done.Add(n)
		s.notify()
	}
}

func (s *progressSession) notify() {
	s.fn(s.done.Load(), s.total.Load())
}

// SetProgress installs a callback invoked (from worker goroutines, so it
// must be safe for concurrent use) whenever a sweep job completes or is
// submitted, with the session's cumulative done/total job counts.
// Installing a callback starts a fresh progress session with zeroed
// counters; sweeps already in flight keep reporting to the session they
// started under, so the new callback never observes done > total. Pass
// nil to disable.
func SetProgress(f func(done, total int64)) {
	if f == nil {
		curProgress.Store(nil)
		return
	}
	curProgress.Store(&progressSession{fn: f})
}

func poolMetrics() {
	poolMetricsOnce.Do(func() {
		r := telemetry.Default()
		mJobs = r.Counter("sim.pool.jobs_total")
		mJobsCompleted = r.Counter("sim.pool.jobs_completed_total")
		mQueueWaitNs = r.Counter("sim.pool.queue_wait_ns_total")
		mSweeps = r.Counter("sim.pool.sweeps_total")
		// The dispatch channel is unbuffered, so the pool never queues
		// jobs itself: this gauge counts jobs of the currently-dispatching
		// sweep not yet handed to a worker. Admission queues live in front
		// of the pool (didtd reports didtd.admission.queue_depth).
		gUndispatched = r.Gauge("sim.pool.undispatched_jobs")
		gWorkers = r.Gauge("sim.pool.workers")
		hUtilization = r.Histogram("sim.pool.worker_utilization_pct", 0, 100, 20)
	})
}

// jobError carries the submission index so error propagation is
// deterministic: whichever goroutine fails, Map reports the error of the
// lowest-indexed failing job.
type jobError struct {
	index int
	err   error
}

// Map runs fn(ctx, i) for i in [0, n) with at most `workers` goroutines
// and returns the results in index order. On error it cancels the
// remaining jobs and returns the error of the lowest-indexed failing job;
// if ctx is cancelled first, ctx's error is returned. workers <= 0 selects
// DefaultWorkers; workers == 1 runs inline with no goroutines at all.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers = resolveWorkers(workers, n)
	poolMetrics()
	mSweeps.Inc()
	gWorkers.Set(float64(workers))
	// Capture the progress session once: every report from this sweep goes
	// to the session that was current when it started, even if a new one
	// is installed mid-flight.
	ps := curProgress.Load()
	ps.addTotal(int64(n))
	// A sweep that exits early (error or cancellation) gives back the jobs
	// it never ran, so the progress line's total always reflects work that
	// will actually happen.
	var completed atomic.Int64
	defer func() {
		if c := completed.Load(); c < int64(n) {
			ps.addTotal(c - int64(n))
		}
	}()
	// Per-job request spans ride the context's tracer (didtd installs it via
	// telemetry.ContextWithTracer); job results never depend on them.
	tr := telemetry.TracerFromContext(ctx)
	runJob := func(ctx context.Context, i int) (T, error) {
		jctx := ctx
		var jspan *telemetry.Span
		if tr.Enabled() {
			jctx, jspan = tr.Start(ctx, "sim.job", telemetry.AttrInt("index", int64(i)))
		}
		v, err := fn(jctx, i)
		if jspan.Enabled() {
			if err != nil {
				jspan.SetAttr("error", "true")
			}
			jspan.End()
		}
		return v, err
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := runJob(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
			completed.Add(1)
			mJobs.Inc()
			mJobsCompleted.Inc()
			ps.addDone(1)
		}
		return out, nil
	}

	// parent distinguishes external cancellation (abandon the join: the
	// caller must not hang on a job function that ignores its context)
	// from the internal cancel below (a job error: the join completes
	// promptly and the real error is collected from errc).
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now() //didt:allow determinism,purity -- wall-clock feeds only the utilization gauge, never sweep results
	busy := make([]time.Duration, workers)
	jobs := make(chan int)
	errc := make(chan jobError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				jobStart := time.Now() //didt:allow determinism,purity -- per-job timing feeds only the utilization histogram
				v, err := runJob(ctx, i)
				busy[w] += time.Since(jobStart) //didt:allow determinism,purity -- per-job timing feeds only the utilization histogram
				if err != nil {
					errc <- jobError{i, err}
					cancel()
					return
				}
				out[i] = v
				completed.Add(1)
				mJobs.Inc()
				mJobsCompleted.Inc()
				ps.addDone(1)
			}
		}(w)
	}

dispatch:
	for i := 0; i < n; i++ {
		waitStart := time.Now() //didt:allow determinism,purity -- queue-wait feeds only the monotonic counter scrapers derive rates from
		select {
		case jobs <- i:
			mQueueWaitNs.Add(time.Since(waitStart).Nanoseconds()) //didt:allow determinism,purity -- queue-wait feeds only the monotonic counter scrapers derive rates from
			gUndispatched.Set(float64(n - i - 1))
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	// Join through a closed channel so a job function that ignores its
	// context can never wedge the caller: external cancellation abandons
	// the join (the worker goroutines die with the cancelled ctx when the
	// job function eventually returns). Internal cancellation — a job
	// error — is NOT an abandon trigger: there the workers drain promptly
	// and the caller must collect the real error from errc below rather
	// than report a generic context error.
	joined := make(chan struct{})
	go func() {
		wg.Wait()
		close(joined)
	}()
	select {
	case <-joined:
	case <-parent.Done():
		return nil, parent.Err()
	}
	close(errc)

	// Per-worker utilization: busy fraction of the sweep's wall time.
	if wall := time.Since(start); wall > 0 { //didt:allow determinism,purity -- utilization metric only; sweep outputs are index-ordered and timing-free
		for _, b := range busy {
			hUtilization.Observe(100 * float64(b) / float64(wall))
		}
	}

	first := jobError{index: n}
	for je := range errc { //didt:allow ctxflow -- errc is closed above after all workers exited; this drains at most `workers` buffered values and terminates
		if je.index < first.index {
			first = je
		}
	}
	if first.err != nil {
		return nil, first.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Sweep maps fn over items with bounded parallelism, preserving order.
func Sweep[In, Out any](ctx context.Context, workers int, items []In, fn func(ctx context.Context, item In) (Out, error)) ([]Out, error) {
	return Map(ctx, workers, len(items), func(ctx context.Context, i int) (Out, error) {
		return fn(ctx, items[i])
	})
}
