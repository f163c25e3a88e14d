// Package sweep is the parallel sweep orchestrator: it fans independent
// simulation runs out across a bounded pool of goroutines and collects
// their results deterministically.
//
// Every evaluation artifact in the paper (Figures 2-7, Tables 1-5) is a
// sweep over independent configurations — workloads x mechanisms x
// outstanding-miss counts x table sizes. Each simulation runs on one
// goroutine over one event engine (see internal/system); this package
// supplies the concurrency *between* runs:
//
//   - a Job/Result model with a Plan builder that expands grids;
//   - a worker pool with bounded concurrency, per-job panic recovery
//     (a crashing configuration reports an error result instead of
//     killing the sweep), per-job wall-clock timing and an optional
//     per-job timeout;
//   - deterministic output ordering (results are returned in job order
//     regardless of completion order) and within-sweep deduplication,
//     so identical jobs execute once;
//   - JSON/CSV export and a progress callback (done / total / ETA).
//
// The orchestrator never reorders or perturbs simulation inputs, so a
// sweep run with 1 worker and with N workers exports byte-identical
// results.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/system"
	"cmpcache/internal/telemetry"
	"cmpcache/internal/txlat"
)

// Job identifies one simulation configuration; the experiment harness
// keys its run cache by it. The zero value of every
// override field means "paper default". Within a sweep, jobs are
// deduplicated by their canonical content hash (Key), so two jobs that
// materialize to the same (config, workload, seed) — even spelled
// differently, e.g. a defaulted field vs. its explicit paper value —
// execute once and share a result.
//
// Integer knob overrides follow a negative-sentinel convention: 0 means
// "mechanism default", a positive value overrides, and any negative
// value means "explicitly zero" — it materializes as 0 (and fails
// config.Validate for the mechanisms that need the knob). The sentinel
// keeps an explicit zero distinct from unset all the way into the
// content-hash cache key, so the two never alias to one result.
type Job struct {
	Workload    string
	Mechanism   config.Mechanism
	Outstanding int // 0 = config default (6)

	// TraceFile, when non-empty, replays a captured trace — a sharded
	// trace directory or a flat binary/text trace file — instead of
	// synthesizing Workload (which must then be empty). The trace's
	// content identity (trace.Describe), not its path, flows into the
	// job's cache key: two paths holding identical captures share a
	// result, and editing a file in place changes the key.
	TraceFile string

	// Table-size overrides (0 = mechanism default, negative = explicit 0).
	WBHTEntries  int
	SnarfEntries int

	// Plug-in policy knob overrides (same sentinel convention).
	ReuseEntries    int // reuse-distance sketch entries per L2
	ReuseMaxDist    int // reuse-distance abort threshold, in misses
	HybridEntries   int // hybrid update/invalidate score-table entries
	HybridThreshold int // peer-read score for update-mode stores

	// Policy variants (zero value = paper policy).
	GlobalWBHT    bool // Figure 3: allocate WBHT entries in all L2s
	NoSwitch      bool // disable the retry-rate on/off switch
	SnarfLRU      bool // insert snarfed lines at LRU instead of MRU
	InvalidOnly   bool // snarf only into Invalid ways
	LinesPerEntry int  // WBHT coarse entries (0 or 1 = per-line)
	HistoryRepl   bool // WBHT-informed L2 replacement (Section 7)

	// RefsPerThread overrides the workload length (0 = profile default).
	RefsPerThread int
}

// overrideInt applies the negative-sentinel convention: 0 leaves dst at
// its default, positive overrides, negative means "explicitly zero".
func overrideInt(dst *int, v int) {
	switch {
	case v > 0:
		*dst = v
	case v < 0:
		*dst = 0
	}
}

// Config materializes the simulated system configuration for the job.
func (j Job) Config() config.Config {
	cfg := config.Default().WithMechanism(j.Mechanism)
	if j.Outstanding > 0 {
		cfg.MaxOutstanding = j.Outstanding
	}
	overrideInt(&cfg.WBHT.Entries, j.WBHTEntries)
	overrideInt(&cfg.Snarf.Entries, j.SnarfEntries)
	overrideInt(&cfg.ReuseDist.Entries, j.ReuseEntries)
	overrideInt(&cfg.HybridUI.Entries, j.HybridEntries)
	overrideInt(&cfg.HybridUI.UpdateThreshold, j.HybridThreshold)
	if j.ReuseMaxDist > 0 {
		cfg.ReuseDist.MaxDistance = uint64(j.ReuseMaxDist)
	} else if j.ReuseMaxDist < 0 {
		cfg.ReuseDist.MaxDistance = 0
	}
	cfg.WBHT.GlobalAllocate = j.GlobalWBHT
	if j.NoSwitch {
		cfg.WBHT.SwitchEnabled = false
	}
	if j.SnarfLRU {
		cfg.Snarf.InsertMRU = false
	}
	if j.InvalidOnly {
		cfg.Snarf.VictimizeShared = false
	}
	if j.LinesPerEntry > 1 {
		cfg.WBHT.LinesPerEntry = j.LinesPerEntry
	}
	cfg.WBHT.HistoryReplacement = j.HistoryRepl
	return cfg
}

// String renders the job compactly for progress lines and errors,
// omitting fields left at their defaults.
func (j Job) String() string {
	var b strings.Builder
	if j.TraceFile != "" {
		fmt.Fprintf(&b, "trace:%s/%s", j.TraceFile, j.Mechanism)
	} else {
		fmt.Fprintf(&b, "%s/%s", j.Workload, j.Mechanism)
	}
	if j.Outstanding > 0 {
		fmt.Fprintf(&b, " out=%d", j.Outstanding)
	}
	for _, v := range []struct {
		val  int
		name string
	}{
		{j.WBHTEntries, "wbht"},
		{j.SnarfEntries, "snarf"},
		{j.ReuseEntries, "reuse"},
		{j.ReuseMaxDist, "maxdist"},
		{j.HybridEntries, "hybrid"},
		{j.HybridThreshold, "thresh"},
	} {
		if v.val > 0 {
			fmt.Fprintf(&b, " %s=%d", v.name, v.val)
		} else if v.val < 0 {
			fmt.Fprintf(&b, " %s=0", v.name)
		}
	}
	for _, v := range []struct {
		on   bool
		name string
	}{
		{j.GlobalWBHT, "global"},
		{j.NoSwitch, "no-switch"},
		{j.SnarfLRU, "lru-insert"},
		{j.InvalidOnly, "invalid-only"},
		{j.HistoryRepl, "hist-repl"},
	} {
		if v.on {
			b.WriteByte(' ')
			b.WriteString(v.name)
		}
	}
	if j.LinesPerEntry > 1 {
		fmt.Fprintf(&b, " coarse=%d", j.LinesPerEntry)
	}
	return b.String()
}

// Result is the outcome of one job. Exactly one of Results and Err is
// meaningful. Duration and Cached describe this sweep's execution and
// are excluded from JSON/CSV export so exports are reproducible across
// worker counts.
type Result struct {
	Job     Job
	Results *system.Results
	Err     error

	// Duration is the wall-clock time of the simulation run (zero for
	// jobs satisfied by an identical job's result).
	Duration time.Duration
	// Cached reports that this job was deduplicated against an
	// identical job earlier in the sweep.
	Cached bool
}

// Progress reports sweep advancement; the pool invokes the callback
// once per finished job, serialized (never concurrently).
type Progress struct {
	Done     int // jobs finished so far, including this one
	Total    int
	Job      Job
	Err      error
	Cached   bool
	Duration time.Duration // this job's wall clock (zero when Cached)
	Elapsed  time.Duration // since the sweep started
	ETA      time.Duration // naive remaining-time estimate
}

// RunFunc executes one job. Implementations must be safe for
// concurrent use; the default is (*Simulator).Run.
type RunFunc func(context.Context, Job) (*system.Results, error)

// Options controls pool execution.
type Options struct {
	// Workers bounds concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout, when positive, cancels each job that runs longer (see
	// Exec). The timed-out job reports context.DeadlineExceeded; the
	// sweep continues. The default Simulator polls the context between
	// events, so a timed-out run stops within milliseconds; a custom
	// Run that ignores its context runs to completion.
	Timeout time.Duration
	// Progress, when non-nil, receives one serialized event per
	// finished job.
	Progress func(Progress)
	// Run overrides the job executor (tests, fault injection). Nil
	// uses a fresh Simulator shared by the sweep.
	Run RunFunc
	// MetricsInterval, when positive and Run is nil, attaches a metrics
	// probe with that sampling window to every simulation; each job's
	// Results.Metrics then carries its interval series. Probes are
	// per-run state, so series are identical at any worker count.
	MetricsInterval config.Cycles
	// Latency, when non-nil and Run is nil, attaches a per-transaction
	// latency collector configured by it to every simulation; each
	// job's Results.Latency then carries the stage-attributed report.
	Latency *txlat.Config
	// Metrics, when non-nil, receives pool occupancy and per-job timing
	// (worker busy gauge, queue-wait and wall-time histograms, run/dedup
	// counters). Every instrument inside is nil-safe, so a partially
	// filled PoolMetrics records only what it carries; nil is the
	// zero-cost detached default.
	Metrics *PoolMetrics
}

// PoolMetrics instruments a sweep pool. Build one with NewPoolMetrics
// to register everything on a telemetry registry, or fill individual
// fields by hand (instruments are nil-safe).
type PoolMetrics struct {
	// Busy tracks workers currently executing a simulation (dedup
	// waiters don't count — they are blocked, not working).
	Busy *telemetry.Gauge
	// JobsRun counts primary executions; JobsDeduped counts jobs served
	// by attaching to an identical in-flight or finished entry.
	JobsRun     *telemetry.Counter
	JobsDeduped *telemetry.Counter
	// QueueSeconds observes, per primary execution, the wait between
	// pool start and the job beginning to run — the dispatch delay the
	// bounded pool imposed. JobSeconds observes each primary's
	// simulation wall time.
	QueueSeconds *telemetry.Histogram
	JobSeconds   *telemetry.Histogram
	// SourceOpens / SourceHits count trace-source container opens vs
	// source-cache hits when the pool builds its own Simulator.
	SourceOpens *telemetry.Counter
	SourceHits  *telemetry.Counter
}

// NewPoolMetrics registers the full pool instrument set on reg under
// the given metric-name prefix (e.g. "cmpsweep").
func NewPoolMetrics(reg *telemetry.Registry, prefix string) *PoolMetrics {
	return &PoolMetrics{
		Busy: reg.Gauge(prefix+"_pool_busy_workers",
			"Pool workers currently executing a simulation."),
		JobsRun: reg.Counter(prefix+"_pool_jobs_run_total",
			"Distinct simulations executed by the pool."),
		JobsDeduped: reg.Counter(prefix+"_pool_jobs_deduped_total",
			"Jobs served by attaching to an identical entry instead of executing."),
		QueueSeconds: reg.Histogram(prefix+"_pool_job_queue_seconds",
			"Wait between pool start and a primary beginning to run.",
			telemetry.SecondsBuckets),
		JobSeconds: reg.Histogram(prefix+"_pool_job_seconds",
			"Per-primary simulation wall time.",
			telemetry.SecondsBuckets),
		SourceOpens: reg.Counter(prefix+"_trace_source_opens_total",
			"Trace-source container opens."),
		SourceHits: reg.Counter(prefix+"_trace_source_cache_hits_total",
			"Trace-source lookups served from the simulator's source cache."),
	}
}

// effectiveWorkers resolves the sweep's concurrency from opts: the
// requested worker count (GOMAXPROCS when unset), bounded by the job
// count.
func effectiveWorkers(opts Options, jobs int) int {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}

// Run executes jobs on a bounded worker pool and returns one Result per
// job, in job order. Identical jobs execute once and share a result.
// Run never fails as a whole: per-job errors (including recovered
// panics and timeouts) are reported on the individual Result. A
// cancelled ctx marks not-yet-started jobs with ctx.Err().
func Run(ctx context.Context, jobs []Job, opts Options) []Result {
	workers := effectiveWorkers(opts, len(jobs))
	runFn := opts.Run
	if runFn == nil {
		sim := NewSimulator()
		sim.MetricsInterval = opts.MetricsInterval
		sim.Latency = opts.Latency
		if opts.Metrics != nil {
			sim.SourceOpens = opts.Metrics.SourceOpens
			sim.SourceHits = opts.Metrics.SourceHits
		}
		runFn = sim.Run
	}

	met := opts.Metrics
	if met == nil {
		met = &PoolMetrics{} // all-nil instruments: nil-safe, zero-cost
	}
	results := make([]Result, len(jobs))
	pool := &pool{
		total:  len(jobs),
		start:  time.Now(),
		report: opts.Progress,
		met:    met,
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				results[idx] = pool.execute(ctx, jobs[idx], runFn, opts.Timeout)
			}
		}()
	}
	for idx := range jobs {
		idxCh <- idx
	}
	close(idxCh)
	wg.Wait()
	return results
}

// flight is an in-package singleflight map: the first caller for a key
// computes the value, every later caller for that key waits for it (or
// for its own ctx) and shares the outcome.
type flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	ready chan struct{} // closed once val/err are final
	val   V
	err   error
}

// do returns the value for key, running fn at most once per key. shared
// reports that another caller ran fn; a shared caller whose ctx ends
// first gets ctx.Err() while fn keeps going for the others.
func (f *flight[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	c, shared := f.calls[key]
	if !shared {
		if f.calls == nil {
			f.calls = make(map[K]*call[V])
		}
		c = &call[V]{ready: make(chan struct{})}
		f.calls[key] = c
	}
	f.mu.Unlock()
	if !shared {
		c.val, c.err = fn()
		close(c.ready)
		return c.val, false, c.err
	}
	select {
	case <-c.ready:
		return c.val, true, c.err
	case <-ctx.Done():
		return v, true, ctx.Err()
	}
}

type pool struct {
	runs flight[string, *system.Results]

	progressMu sync.Mutex
	done       int
	total      int
	start      time.Time
	report     func(Progress)

	met *PoolMetrics // never nil; individual instruments may be
}

// execute runs (or awaits) the execution for job and returns its
// Result. Executions are keyed by the canonical content hash (Key), not
// the Job struct, so jobs that spell the same simulation differently —
// a defaulted field vs. its explicit paper value — still collapse to
// one execution.
func (p *pool) execute(ctx context.Context, job Job, runFn RunFunc, timeout time.Duration) Result {
	r := Result{Job: job}
	r.Results, r.Cached, r.Err = p.runs.do(ctx, dedupKey(job), func() (*system.Results, error) {
		start := time.Now()
		p.met.QueueSeconds.Observe(start.Sub(p.start).Seconds())
		p.met.Busy.Inc()
		res, err := Exec(ctx, runFn, job, timeout)
		r.Duration = time.Since(start)
		p.met.Busy.Dec()
		p.met.JobsRun.Inc()
		p.met.JobSeconds.Observe(r.Duration.Seconds())
		return res, err
	})
	if r.Cached {
		p.met.JobsDeduped.Inc()
	}
	p.progress(r)
	return r
}

func (p *pool) progress(r Result) {
	if p.report == nil {
		p.progressMu.Lock()
		p.done++
		p.progressMu.Unlock()
		return
	}
	p.progressMu.Lock()
	defer p.progressMu.Unlock()
	p.done++
	elapsed := time.Since(p.start)
	var eta time.Duration
	if p.done > 0 && p.done < p.total {
		eta = elapsed / time.Duration(p.done) * time.Duration(p.total-p.done)
	}
	p.report(Progress{
		Done:     p.done,
		Total:    p.total,
		Job:      r.Job,
		Err:      r.Err,
		Cached:   r.Cached,
		Duration: r.Duration,
		Elapsed:  elapsed,
		ETA:      eta,
	})
}

// Exec runs one job with panic isolation and, when timeout is
// positive, under a context that expires after it. A panicking run
// reports an error naming the job instead of killing the caller; a run
// that stops because its context ended reports an error that names the
// job and wraps the context's error. A run that ignores its context
// runs to completion.
func Exec(ctx context.Context, run RunFunc, job Job, timeout time.Duration) (res *system.Results, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("sweep: job %s panicked: %v", job, p)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if res, err = run(ctx, job); err != nil && ctx.Err() != nil {
		err = fmt.Errorf("sweep: job %s: %w", job, err)
	}
	return res, err
}
