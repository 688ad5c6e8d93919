package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"didt/internal/telemetry"
)

func TestMapPreservesSubmissionOrder(t *testing.T) {
	// Later jobs finish first; results must still come back by index.
	const n = 64
	for _, workers := range []int{1, 2, 8, n} {
		out, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), workers, 40, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, cap %d", p, workers)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	wantErr := errors.New("job 5 exploded")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 32, func(_ context.Context, i int) (int, error) {
			if i == 5 {
				return 0, wantErr
			}
			if i == 20 {
				return 0, errors.New("job 20 exploded")
			}
			return i, nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", workers, err, wantErr)
		}
	}
}

func TestMapErrorStopsDispatch(t *testing.T) {
	// After a failure, undispatched jobs must not run.
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 2, 1000, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d jobs ran after early failure", n)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	done := make(chan struct{})
	var out []int
	var err error
	go func() {
		out, err = Map(ctx, 2, 1000, func(ctx context.Context, i int) (int, error) {
			if started.Add(1) == 3 {
				cancel()
			}
			select {
			case <-ctx.Done():
			case <-time.After(50 * time.Millisecond):
			}
			return i, nil
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled Map returned results")
	}
	// Serial path honors pre-cancelled contexts too.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := Map(pre, 1, 4, func(context.Context, int) (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial path ignored cancelled context: %v", err)
	}
}

func TestSweep(t *testing.T) {
	items := []string{"a", "bb", "ccc"}
	out, err := Sweep(context.Background(), 2, items, func(_ context.Context, s string) (int, error) {
		return len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[1 2 3]" {
		t.Fatalf("got %v", out)
	}
	if out, err := Sweep(context.Background(), 4, []int(nil), func(_ context.Context, i int) (int, error) { return i, nil }); err != nil || out != nil {
		t.Fatalf("empty sweep: %v %v", out, err)
	}
}

func TestDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(7)
	if got := DefaultWorkers(); got != 7 {
		t.Fatalf("got %d after SetDefaultWorkers(7)", got)
	}
	SetDefaultWorkers(-3)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative override must restore GOMAXPROCS, got %d", got)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache[string, int](0)
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Get("k", func() (int, error) {
				computes.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want exactly 1", n)
	}
}

// TestCachePeek: Peek returns only completed entries, never computes and
// never waits on an entry still being computed; it counts a hit when it
// finds one and nothing otherwise, and refreshes the entry's recency.
func TestCachePeek(t *testing.T) {
	c := NewCache[string, int](2)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek found an absent key")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("a missed Peek touched the cache: %+v", st)
	}
	release, started := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.Get("slow", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	if _, ok := c.Peek("slow"); ok {
		t.Fatal("Peek returned an entry still being computed")
	}
	close(release)
	<-done
	if v, ok := c.Peek("slow"); !ok || v != 7 {
		t.Fatalf("Peek after completion = %d, %v; want 7, true", v, ok)
	}
	if _, err := c.Get("a", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	// "slow" is now least recently used; a Peek makes it the most recent,
	// so the next insertion evicts "a" instead.
	c.Peek("slow")
	if _, err := c.Get("b", func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek("a"); ok {
		t.Error("the entry Peek refreshed was evicted before the older one")
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 3 {
		t.Errorf("stats %+v; want 2 hits (the found Peeks) and 3 misses (the Gets)", st)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache[int, int](0)
	boom := errors.New("boom")
	calls := 0
	if _, err := c.Get(1, func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	v, err := c.Get(1, func() (int, error) { calls++; return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry got %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("%d compute calls", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestCacheStats(t *testing.T) {
	c := NewCache[int, int](3)
	for _, k := range []int{1, 2, 1, 1, 3} {
		if _, err := c.Get(k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 3 || s.Entries != 3 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want 2 hits / 3 misses / 3 entries / 0 evictions", s)
	}
	if got, want := s.HitRate(), 2.0/5.0; got != want {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
	// Inserting past capacity evicts exactly the least-recently-used
	// completed entry (key 2: key 1 was re-read after it), not the whole
	// map.
	if _, err := c.Get(4, func() (int, error) { return 4, nil }); err != nil {
		t.Fatal(err)
	}
	s = c.Stats()
	if s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("after capacity eviction: %+v, want 1 eviction / 3 entries", s)
	}
	if v, _ := c.Get(1, func() (int, error) { return -1, nil }); v != 1 {
		t.Fatalf("recently-used key 1 was evicted: got %d", v)
	}
	c.Reset()
	if s = c.Stats(); s.Evictions != 4 || s.Entries != 0 {
		t.Fatalf("after reset: %+v, want 4 evictions / 0 entries", s)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("untouched cache must report hit rate 0")
	}
}

func TestCacheRegisterMetrics(t *testing.T) {
	c := NewCache[int, int](0)
	r := telemetry.NewRegistry()
	c.RegisterMetrics(r, "cache.test")
	for _, k := range []int{1, 1, 2} {
		c.Get(k, func() (int, error) { return k, nil })
	}
	g := r.Snapshot().Gauges
	if g["cache.test.hits"] != 1 || g["cache.test.misses"] != 2 || g["cache.test.entries"] != 2 {
		t.Fatalf("gauges = %v", g)
	}
	if got, want := g["cache.test.hit_rate"], 1.0/3.0; got != want {
		t.Fatalf("hit_rate gauge = %v, want %v", got, want)
	}
}

func TestMapProgressHook(t *testing.T) {
	defer SetProgress(nil)
	var mu sync.Mutex
	var finalDone, finalTotal int64
	calls := 0
	SetProgress(func(done, total int64) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		finalDone, finalTotal = done, total
	})
	for _, workers := range []int{1, 4} {
		mu.Lock()
		calls, finalDone, finalTotal = 0, 0, 0
		mu.Unlock()
		if _, err := Map(context.Background(), workers, 12, func(_ context.Context, i int) (int, error) {
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if calls == 0 {
			t.Fatalf("workers=%d: progress hook never fired", workers)
		}
		if finalDone != finalTotal {
			t.Fatalf("workers=%d: final progress %d/%d, want done == total", workers, finalDone, finalTotal)
		}
		mu.Unlock()
	}
}

func TestCacheCapacityAndReset(t *testing.T) {
	c := NewCache[int, int](4)
	for i := 0; i < 10; i++ {
		if _, err := c.Get(i, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 4 {
		t.Fatalf("capacity not enforced: %d entries, want exactly 4", n)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("reset left entries")
	}
	// Values survive for warm keys.
	v, _ := c.Get(3, func() (int, error) { return 33, nil })
	v2, _ := c.Get(3, func() (int, error) { return -1, nil })
	if v != 33 || v2 != 33 {
		t.Fatalf("got %d then %d", v, v2)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache[int, int](3)
	for _, k := range []int{1, 2, 3} {
		c.Get(k, func() (int, error) { return k, nil })
	}
	// Touch 1 so 2 becomes the least recently used.
	c.Get(1, func() (int, error) { return -1, nil })
	c.Get(4, func() (int, error) { return 4, nil })
	if v, _ := c.Get(1, func() (int, error) { return -1, nil }); v != 1 {
		t.Fatalf("recently-read key 1 evicted: got %d", v)
	}
	if v, _ := c.Get(3, func() (int, error) { return -3, nil }); v != 3 {
		t.Fatalf("resident key 3 evicted: got %d", v)
	}
	// Key 2 was the LRU victim; a fresh Get recomputes it.
	if v, _ := c.Get(2, func() (int, error) { return -2, nil }); v != -2 {
		t.Fatalf("LRU key 2 should have been evicted: got %d", v)
	}
	if s := c.Stats(); s.Evictions < 2 {
		t.Fatalf("stats = %+v, want at least 2 single-entry evictions", s)
	}
}

func TestCacheSetCapacity(t *testing.T) {
	c := NewCache[int, int](0)
	for i := 0; i < 10; i++ {
		c.Get(i, func() (int, error) { return i, nil })
	}
	c.SetCapacity(3)
	if n := c.Len(); n != 3 {
		t.Fatalf("SetCapacity(3) left %d entries", n)
	}
	if s := c.Stats(); s.Evictions != 7 {
		t.Fatalf("SetCapacity evicted %d entries, want 7", s.Evictions)
	}
	// The survivors are the three most recently used.
	for _, k := range []int{7, 8, 9} {
		if v, _ := c.Get(k, func() (int, error) { return -1, nil }); v != k {
			t.Fatalf("MRU key %d evicted by SetCapacity", k)
		}
	}
}

// TestCacheInFlightPinnedUnderPressure is the regression test for the
// flush-everything eviction bug: a capacity flush used to drop entries
// whose computation was still running, so a concurrent Get of the same
// key would silently start a second computation. With the LRU rewrite an
// in-flight entry is pinned — never evicted, never recomputed — no matter
// how much capacity pressure concurrent requests generate.
func TestCacheInFlightPinnedUnderPressure(t *testing.T) {
	c := NewCache[int, int](2)
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := c.Get(0, func() (int, error) {
			computes.Add(1)
			close(started)
			<-release
			return 100, nil
		})
		if err != nil || v != 100 {
			t.Errorf("first Get(0) = %d, %v; want 100", v, err)
		}
	}()
	<-started

	// Churn many other keys through the cache while key 0 is in flight.
	for k := 1; k <= 20; k++ {
		if _, err := c.Get(k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Two completed entries at capacity plus the pinned in-flight one.
	if n := c.Len(); n > 3 {
		t.Fatalf("%d resident entries, want <= cap+1 (pinned in-flight)", n)
	}

	// A concurrent Get of the in-flight key must join the running
	// computation rather than starting a second one.
	hitsBefore := c.Stats().Hits
	got := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _ := c.Get(0, func() (int, error) {
			computes.Add(1)
			return -1, nil
		})
		got <- v
	}()
	for c.Stats().Hits == hitsBefore {
		runtime.Gosched() // wait until the concurrent Get has joined
	}
	close(release)
	wg.Wait()
	if v := <-got; v != 100 {
		t.Fatalf("concurrent Get of in-flight key = %d, want 100 (entry was evicted and recomputed)", v)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("key 0 computed %d times, want exactly 1", n)
	}
}

// TestSetProgressMidSweepIsolated is the regression test for the
// mid-sweep counter reset: installing a callback used to zero the
// process-wide done/total counters while a running sweep kept adding to
// them, so the progress line could report done > total. Sessions isolate
// the counters: the in-flight sweep keeps reporting against the session
// it started under.
func TestSetProgressMidSweepIsolated(t *testing.T) {
	defer SetProgress(nil)
	var violations atomic.Int32
	check := func(done, total int64) {
		if done > total {
			violations.Add(1)
		}
	}
	SetProgress(check)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	errc := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), 2, 8, func(_ context.Context, i int) (int, error) {
			once.Do(func() { close(started) })
			<-release
			return i, nil
		})
		errc <- err
	}()
	<-started
	SetProgress(check) // fresh session while the sweep is mid-flight
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if n := violations.Load(); n > 0 {
		t.Fatalf("progress callback observed done > total %d times", n)
	}
}

// TestPoolUndispatchedGauge covers the queue_depth gauge rename: the
// dispatch channel is unbuffered, so the old sim.pool.queue_depth name
// claimed a queue that cannot exist; the value counts undispatched jobs.
func TestPoolUndispatchedGauge(t *testing.T) {
	if _, err := Map(context.Background(), 2, 8, func(_ context.Context, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	g := telemetry.Default().Snapshot().Gauges
	if _, ok := g["sim.pool.undispatched_jobs"]; !ok {
		t.Fatalf("sim.pool.undispatched_jobs gauge missing; have %v", g)
	}
	if _, ok := g["sim.pool.queue_depth"]; ok {
		t.Fatal("stale sim.pool.queue_depth gauge still registered")
	}
}

// TestMapAbandonsJoinOnExternalCancel: regression for the unconditional
// worker join that once wedged Map's caller forever when a job function
// ignored its context. External cancellation must return promptly even
// while every worker is stuck inside such a job; the abandoned workers
// are left to die on their own once the job finally returns.
func TestMapAbandonsJoinOnExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	wedge := make(chan struct{})
	entered := make(chan struct{}, 4)
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 2, 4, func(context.Context, int) (int, error) {
			entered <- struct{}{}
			<-wedge // deliberately ignores ctx: the worst-behaved job possible
			return 0, nil
		})
		done <- err
	}()
	<-entered
	<-entered // both workers are now wedged in context-ignoring jobs
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got err %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Map stayed wedged joining workers stuck in context-ignoring jobs")
	}
	close(wedge) // release the abandoned workers so they exit cleanly
}

// TestMapJobErrorSurvivesSlowJoin: the flip side of the abandon rule — an
// internal cancellation (a job error) must NOT abandon the join, because
// the caller needs the real error collected from the error channel, not a
// generic context error. The failing job's error comes back even when
// another worker is still finishing a slow job at join time.
func TestMapJobErrorSurvivesSlowJoin(t *testing.T) {
	boom := errors.New("job 0 failed")
	release := make(chan struct{})
	var failed atomic.Bool
	out, err := Map(context.Background(), 2, 4, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			failed.Store(true)
			close(release)
			return 0, boom
		}
		// The slow job holds the join open past the internal cancel.
		<-release
		time.Sleep(20 * time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got err %v, want the job error", err)
	}
	if out != nil {
		t.Fatal("failed Map returned results")
	}
	if !failed.Load() {
		t.Fatal("failing job never ran")
	}
}

// TestRegisterCacheResetAndStats: a cache registered through RegisterCache
// is a capacity tunable, is emptied by ResetCaches, and reports its
// counters through AllCacheStats under its name.
func TestRegisterCacheResetAndStats(t *testing.T) {
	c := NewCache[string, int](8)
	if got := RegisterCache("test_registry", 4, c); got != 4 {
		t.Fatalf("effective capacity %d, want 4", got)
	}
	if capacity, ok := CacheCapacity("test_registry"); !ok || capacity != 4 {
		t.Fatalf("CacheCapacity = %d, %v", capacity, ok)
	}
	for range 2 {
		if _, err := c.Get("a", func() (int, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := AllCacheStats()["test_registry"]
	if !ok || st.Hits != 1 {
		t.Fatalf("AllCacheStats entry %+v (present %v), want one hit", st, ok)
	}
	ResetCaches()
	if c.Len() != 0 {
		t.Errorf("ResetCaches left %d entries", c.Len())
	}
}
