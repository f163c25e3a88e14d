package sweep

import (
	"context"
	"sync"

	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/system"
	"cmpcache/internal/telemetry"
	"cmpcache/internal/trace"
	"cmpcache/internal/txlat"
	"cmpcache/internal/workload"
)

// Simulator is the default job executor: it synthesizes (and caches)
// workload traces and runs each job's configuration through the
// simulator. It is safe for concurrent use; identical (workload,
// length) traces are generated once and shared — the simulator only
// reads trace records, so sharing across concurrent runs is safe.
type Simulator struct {
	// MetricsInterval, when positive, attaches a metrics probe sampling
	// at that window to every run; each Result's Results.Metrics then
	// carries the per-interval series. Zero leaves runs unprobed (the
	// zero-overhead default). Set before the sweep starts.
	MetricsInterval config.Cycles

	// Latency, when non-nil, attaches a per-transaction latency
	// collector configured by it to every run; each Result's
	// Results.Latency then carries the stage-attributed report.
	// Collectors are per-run state, so reports are identical at any
	// worker count. Set before the sweep starts.
	Latency *txlat.Config

	// SourceOpens / SourceHits count trace-source container opens and
	// source-cache hits. Nil-safe telemetry instruments: leave nil for
	// zero-cost detachment. Set before the sweep starts.
	SourceOpens *telemetry.Counter
	SourceHits  *telemetry.Counter

	mu      sync.Mutex
	traces  map[traceKey]*traceEntry
	sources map[sourceKey]*sourceEntry
}

type traceKey struct {
	name string
	refs int
}

type traceEntry struct {
	ready chan struct{}
	tr    *trace.Trace
	err   error
}

// sourceKey keys opened trace files by path AND content hash: a file
// edited in place between jobs is reopened, never served stale from the
// handle cache.
type sourceKey struct {
	path string
	sha  string
}

type sourceEntry struct {
	ready chan struct{}
	src   trace.Source
	err   error
}

// NewSimulator returns a Simulator with an empty trace cache.
func NewSimulator() *Simulator {
	return &Simulator{
		traces:  make(map[traceKey]*traceEntry),
		sources: make(map[sourceKey]*sourceEntry),
	}
}

// trace returns the cached trace for (name, refs), generating it at
// most once even under concurrent callers.
func (s *Simulator) trace(ctx context.Context, name string, refs int) (*trace.Trace, error) {
	key := traceKey{name: name, refs: refs}
	s.mu.Lock()
	e, ok := s.traces[key]
	if !ok {
		e = &traceEntry{ready: make(chan struct{})}
		s.traces[key] = e
	}
	s.mu.Unlock()
	if !ok {
		e.tr, e.err = generate(name, refs)
		close(e.ready)
		return e.tr, e.err
	}
	select {
	case <-e.ready:
		return e.tr, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func generate(name string, refs int) (*trace.Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if refs > 0 {
		p.RefsPerThread = refs
	}
	return p.Generate()
}

// source returns the opened trace source for path, opening it at most
// once per content version even under concurrent callers. Sharded
// directories stream from disk; flat files load into memory. Sources
// are shared across concurrent runs — per-thread streams are
// independent and the sharded reader serves them with positioned reads.
func (s *Simulator) source(ctx context.Context, path string) (trace.Source, error) {
	ref, err := trace.Describe(path)
	if err != nil {
		return nil, err
	}
	key := sourceKey{path: path, sha: ref.SHA256}
	s.mu.Lock()
	e, ok := s.sources[key]
	if !ok {
		e = &sourceEntry{ready: make(chan struct{})}
		s.sources[key] = e
	}
	s.mu.Unlock()
	if !ok {
		s.SourceOpens.Inc()
		e.src, e.err = openSource(path)
		close(e.ready)
		return e.src, e.err
	}
	s.SourceHits.Inc()
	select {
	case <-e.ready:
		return e.src, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func openSource(path string) (trace.Source, error) {
	if trace.IsShardedDir(path) {
		return trace.OpenSharded(path)
	}
	t, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.NewMemSource(t), nil
}

// Run executes one job to completion, or until ctx is cancelled: the
// simulation polls ctx between events (system.RunContext), so a
// cancelled or timed-out job stops within milliseconds and its
// goroutine exits — nothing keeps running in the background. A
// completed run is bit-identical regardless of the ctx used.
func (s *Simulator) Run(ctx context.Context, j Job) (*system.Results, error) {
	cfg := j.Config()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var sys *system.System
	if j.TraceFile != "" {
		src, err := s.source(ctx, j.TraceFile)
		if err != nil {
			return nil, err
		}
		if sys, err = system.NewStream(cfg, src); err != nil {
			return nil, err
		}
	} else {
		tr, err := s.trace(ctx, j.Workload, j.RefsPerThread)
		if err != nil {
			return nil, err
		}
		if sys, err = system.New(cfg, tr); err != nil {
			return nil, err
		}
	}
	if s.MetricsInterval > 0 {
		sys.Attach(metrics.NewProbe(metrics.Config{Interval: s.MetricsInterval}))
	}
	if s.Latency != nil {
		sys.AttachLatency(txlat.New(*s.Latency))
	}
	return sys.RunContext(ctx)
}
