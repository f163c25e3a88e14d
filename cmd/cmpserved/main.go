// Command cmpserved is the simulation-as-a-service daemon: a
// long-running HTTP server that accepts single configurations or whole
// sweep grids, executes them on the shared worker pool, and memoizes
// every result in a two-level (memory L1 / disk L2) content-addressed
// cache. Because the simulator is bit-deterministic, a cache hit is the
// exact bytes a fresh run would produce — resubmitting a grid that has
// already been computed costs zero simulation work. Grids may mix
// synthetic workloads with captured traces (the request's "traces"
// field names server-local sharded trace directories or flat trace
// files); trace jobs are cached by capture content, never by path.
//
// Usage:
//
//	cmpserved -addr :8044 -cache-dir /var/cache/cmpsim -workers 4
//	cmpserved -metrics-interval 1000000 -latency
//
// API (see DESIGN.md §14):
//
//	POST   /v1/jobs              submit a config or grid -> job IDs
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         status + result JSON
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/events  SSE progress + interval-metrics samples
//	GET    /v1/jobs/{id}/latency stage-attributed latency report
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 during the drain window)
//	GET    /metrics              Prometheus text exposition
//	GET    /debug/stats          cache/queue/job counters
//	GET    /debug/pprof/         runtime profiles
//
// Every request is logged (one structured line via -log) with an
// X-Request-Id that also tags the job lifecycle lines it causes.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503, the
// listener closes, jobs drain for -drain-timeout (stragglers are then
// cancelled), and the in-memory cache is persisted to -cache-dir.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8044", "listen address (host:port; :0 picks an ephemeral port)")
		cacheDir    = flag.String("cache-dir", "", "on-disk L2 result cache directory (empty = in-memory L1 only)")
		l1Entries   = flag.Int("l1-entries", 0, "in-memory L1 cache entry bound (0 = default 256)")
		l1Bytes     = flag.Int64("l1-bytes", 0, "in-memory L1 cache byte bound (0 = default 256 MiB)")
		workers     = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queueDepth  = flag.Int("queue", 0, "accepted-but-not-running job bound; overflow is rejected with 429 (0 = default 256)")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job wall-clock timeout (0 = none)")
		metricsIval = flag.Int64("metrics-interval", 0, "attach interval metrics at this cycle window to every run (0 = off)")
		latency     = flag.Bool("latency", false, "attach the per-transaction latency collector to every run (enables /v1/jobs/{id}/latency)")
		latTopK     = flag.Int("lat-topk", 0, "slowest-transactions reservoir size with -latency (0 = default 16)")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before in-flight jobs are cancelled")
		logFormat   = flag.String("log", "text", "structured request/job log on stderr: text, json, or off")
		overrides   = config.RegisterOverrides(flag.CommandLine)
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmpserved: %v\n", err)
		os.Exit(1)
	}
	opts := serve.Options{
		CacheDir:        *cacheDir,
		L1Entries:       *l1Entries,
		L1Bytes:         *l1Bytes,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		JobTimeout:      *jobTimeout,
		MetricsInterval: config.Cycles(*metricsIval),
		Latency:         *latency,
		LatencyTopK:     *latTopK,
		Overrides:       overrides,
		Logger:          logger,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveMain(ctx, *addr, opts, *drain, nil); err != nil {
		fmt.Fprintf(os.Stderr, "cmpserved: %v\n", err)
		os.Exit(1)
	}
}

// serveMain runs the daemon until ctx is cancelled, then shuts down
// gracefully within the drain budget. When ready is non-nil it receives
// the bound listen address once the server is accepting (tests use this
// with :0).
func serveMain(ctx context.Context, addr string, opts serve.Options, drain time.Duration, ready chan<- string) error {
	d, err := serve.New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Handler()}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "cmpserved: listening on http://%s (workers=%d cache=%s)\n",
		ln.Addr(), workers, cacheDesc(opts.CacheDir))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		d.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "cmpserved: shutting down (drain budget %s)\n", drain)
	// Flip /readyz to 503 before closing the listener so load balancers
	// stop routing while in-flight requests still complete.
	d.BeginDrain()
	deadline, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Stop accepting first, then drain the job queue; both share the
	// drain budget.
	if err := srv.Shutdown(deadline); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		d.Shutdown(deadline)
		return err
	}
	if err := d.Shutdown(deadline); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-errc // Serve has returned http.ErrServerClosed by now
	return nil
}

// buildLogger maps the -log flag to a slog logger on stderr (nil for
// "off"; serve discards internally).
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -log format %q (want text, json, or off)", format)
	}
}

func cacheDesc(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}
