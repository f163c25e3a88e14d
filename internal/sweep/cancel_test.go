package sweep

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cmpcache/internal/config"
)

// waitGoroutines polls until the goroutine count settles back to at
// most want (plus slack for test-runner background goroutines).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", want, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPoolCancellation proves the daemon-facing contract of the run
// path: a cancelled sweep context reaches the running simulations (the
// job observes ctx and aborts mid-run), the pool drains cleanly, and no
// worker or simulation goroutine is left behind.
func TestPoolCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	// ~1M-record traces: setup is fractions of a second while the full
	// simulation would take many seconds, so a 20ms cancellation must
	// land long before any job can complete.
	jobs := []Job{
		{Workload: "tp", Mechanism: config.Baseline, RefsPerThread: 60_000},
		{Workload: "trade2", Mechanism: config.Baseline, RefsPerThread: 60_000},
		{Workload: "cpw2", Mechanism: config.Baseline, RefsPerThread: 60_000},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	results := Run(ctx, jobs, Options{Workers: 2})
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("job %d completed despite cancellation", i)
		} else if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	waitGoroutines(t, before)
}

// TestPoolTimeoutStopsRun proves a per-job timeout actually stops the
// default simulator: the job reports DeadlineExceeded and the run
// stops instead of simulating to completion.
func TestPoolTimeoutStopsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	jobs := []Job{{Workload: "tp", Mechanism: config.Baseline, RefsPerThread: 60_000}}
	results := Run(context.Background(), jobs, Options{Workers: 1, Timeout: 30 * time.Millisecond})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", results[0].Err)
	}
	waitGoroutines(t, before)
}
