package sweep

import (
	"context"
	"strings"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/system"
	"cmpcache/internal/telemetry"
)

// TestPoolMetricsCounts proves the pool feeds its instrument set: one
// primary execution per distinct job, one dedup count per collapsed
// duplicate, busy settling back to zero, and one histogram observation
// per primary.
func TestPoolMetricsCounts(t *testing.T) {
	reg := telemetry.New()
	met := NewPoolMetrics(reg, "test")
	run := func(ctx context.Context, j Job) (*system.Results, error) {
		return &system.Results{EventsFired: 1}, nil
	}
	jobs := []Job{
		{Workload: "tp", Mechanism: config.Baseline},
		{Workload: "tp", Mechanism: config.WBHT},
		{Workload: "tp", Mechanism: config.Snarf},
		{Workload: "tp", Mechanism: config.Baseline}, // dup of job 0
		{Workload: "tp", Mechanism: config.WBHT},     // dup of job 1
	}
	results := Run(context.Background(), jobs, Options{Workers: 2, Run: run, Metrics: met})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if got := met.JobsRun.Value(); got != 3 {
		t.Errorf("JobsRun = %d, want 3", got)
	}
	if got := met.JobsDeduped.Value(); got != 2 {
		t.Errorf("JobsDeduped = %d, want 2", got)
	}
	if got := met.Busy.Value(); got != 0 {
		t.Errorf("Busy = %d after the sweep, want 0", got)
	}
	if got := met.QueueSeconds.Count(); got != 3 {
		t.Errorf("QueueSeconds count = %d, want 3 (one per primary)", got)
	}
	if got := met.JobSeconds.Count(); got != 3 {
		t.Errorf("JobSeconds count = %d, want 3 (one per primary)", got)
	}

	// The registry renders the same instruments under the prefix.
	var b strings.Builder
	if _, err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"test_pool_jobs_run_total 3",
		"test_pool_jobs_deduped_total 2",
		"test_pool_busy_workers 0",
	} {
		if !strings.Contains(b.String(), series+"\n") {
			t.Errorf("exposition missing %q", series)
		}
	}
}

// TestPoolMetricsSourceCache proves the trace-source counters flow from
// the pool's own Simulator: the first job over a capture opens the
// container, the second is served from the source cache.
func TestPoolMetricsSourceCache(t *testing.T) {
	dir := writeShardedTrace(t, genTrace(t, "tp", 200))
	met := NewPoolMetrics(telemetry.New(), "test")
	jobs := []Job{
		{TraceFile: dir, Mechanism: config.Baseline},
		{TraceFile: dir, Mechanism: config.WBHT},
	}
	results := Run(context.Background(), jobs, Options{Workers: 1, Metrics: met})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if opens := met.SourceOpens.Value(); opens != 1 {
		t.Errorf("SourceOpens = %d, want 1 (one container open)", opens)
	}
	if hits := met.SourceHits.Value(); hits != 1 {
		t.Errorf("SourceHits = %d, want 1 (second job served from cache)", hits)
	}
	if met.JobsRun.Value() != 2 {
		t.Errorf("JobsRun = %d, want 2 (different mechanisms never dedup)", met.JobsRun.Value())
	}
}
