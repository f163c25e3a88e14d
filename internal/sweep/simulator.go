package sweep

import (
	"context"

	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/observe"
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

	traces  flight[traceKey, *trace.Trace]
	sources flight[sourceKey, trace.Source]
}

type traceKey struct {
	name string
	refs int
}

// sourceKey keys opened trace files by path AND content hash: a file
// edited in place between jobs is reopened, never served stale from the
// handle cache.
type sourceKey struct {
	path string
	sha  string
}

// NewSimulator returns a Simulator with empty trace and source caches.
func NewSimulator() *Simulator { return &Simulator{} }

// trace returns the cached trace for (name, refs), generating it at
// most once even under concurrent callers.
func (s *Simulator) trace(ctx context.Context, name string, refs int) (*trace.Trace, error) {
	tr, _, err := s.traces.do(ctx, traceKey{name: name, refs: refs}, func() (*trace.Trace, error) {
		return generate(name, refs)
	})
	return tr, err
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
	src, hit, err := s.sources.do(ctx, sourceKey{path: path, sha: ref.SHA256}, func() (trace.Source, error) {
		s.SourceOpens.Inc()
		return openSource(path)
	})
	if hit {
		s.SourceHits.Inc()
	}
	return src, err
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
	var src trace.Source
	if j.TraceFile != "" {
		var err error
		if src, err = s.source(ctx, j.TraceFile); err != nil {
			return nil, err
		}
	} else {
		tr, err := s.trace(ctx, j.Workload, j.RefsPerThread)
		if err != nil {
			return nil, err
		}
		src = trace.NewMemSource(tr)
	}
	var obs []observe.Observer
	if s.MetricsInterval > 0 {
		obs = append(obs, metrics.NewProbe(metrics.Config{Interval: s.MetricsInterval}))
	}
	if s.Latency != nil {
		obs = append(obs, txlat.New(*s.Latency))
	}
	sys, err := system.NewStream(cfg, src, obs...)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}
