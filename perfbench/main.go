// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator or the cmpserved daemon, checks the
// outputs, and prints every metric with its unit as the last line of
// standard output:
//
//	perfbench -workload sim-trade2 -seed 1 -seconds 20 -trace 0 \
//	    -server path/to/cmpserved -out .bench_out
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// runs half the time untraced and half traced (spans, CPU profile,
// program counters) and prints the per-layer metrics. perfbench/run.sh
// builds both binaries from the checkout and runs this command; see
// perfbench/README.md for the metrics, the workloads and how to run an
// A/B comparison.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric the benchmark prints, in the
// order BENCHMARK.json declares them (TestCatalogMatchesBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"refs_per_s", "refs/s"},
	{"max_rss_mb", "MB"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"warm_p90_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
}

var perLayer = []metricDef{
	{"failed_frac", "ratio"},
	{"workload.generate_s", "s"},
	{"trace.write_s", "s"},
	{"trace.open_s", "s"},
	{"trace.capture_mb", "MB"},
	{"trace.decode_s", "s"},
	{"trace.max_buffered_records", "count"},
	{"system.build_s", "s"},
	{"system.run_s", "s"},
	{"system.marshal_s", "s"},
	{"system.alloc_mb", "MB"},
	{"system.allocs", "count"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"round.rounds", "count"},
	{"round.parallel_rounds", "count"},
	{"round.events_per_round", "events/round"},
	{"round.horizon_next_global_frac", "ratio"},
	{"round.barrier_wait_s", "s"},
	{"cache.l2_accesses", "count"},
	{"cache.l2_hit_rate", "ratio"},
	{"l2.mshr_attach", "count"},
	{"l2.clean_wb_queued", "count"},
	{"l3.demand_lookups", "count"},
	{"l3.retries", "count"},
	{"ring.address_txns", "count"},
	{"ring.data_transfers", "count"},
	{"coherence.snoops_observed", "count"},
	{"wbht.consults", "count"},
	{"wbht.aborts", "count"},
	{"snarf.accepts", "count"},
	{"sweep.queue_wait_s", "s"},
	{"sweep.job_run_s", "s"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.cache_disk_hits", "count"},
	{"serve.sim_runs", "count"},
	{"serve.collapsed", "count"},
	{"serve.rejected", "count"},
	{"serve.result_kb", "KB"},
	{"telemetry.scrape_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.cold_samples", "count"},
	{"bench.warm_samples", "count"},
	{"prof.samples", "count"},
}

func init() {
	for _, l := range profLayers {
		perLayer = append(perLayer, metricDef{"prof." + l + "_frac", "ratio"})
	}
}

// options configures one benchmark run. The size fields default to
// the benchmark's sizes; tests shrink them.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	server   string // cmpserved binary, for serve-mix
	outDir   string // spans, CPU profiles, daemon logs, scratch files

	refsPerThread int // sim workloads: references per thread
	setupReps     int // set-ups per run; setup_s is their median
	serveRefs     []int
	l1Entries     int // serve-mix: the daemon's -l1-entries

	// inject, when set, corrupts one output so tests can prove the
	// checks catch it: "results-field" changes one Results field of one
	// simulation, "warm-byte" flips one byte of one warm serve result.
	inject string
}

func defaultOptions() options {
	return options{
		seed:    1,
		seconds: 10,
		outDir:  ".bench_out",
		// 10k references per thread is about the shortest trace that
		// fills the L2s, so that write-backs, the WBHT, snarfing and L3
		// retries all do work. Longer traces make each simulation
		// memory-bound on the host, and on a shared host its speed then
		// drifts with the neighbours' memory traffic; shorter
		// simulations also give the latency percentiles more samples.
		refsPerThread: 10000,
		setupReps:     21,
		serveRefs:     refsRange(400, 1000, 10),
		l1Entries:     32,
	}
}

// measurement is what one workload run produced: operations attempted
// and failed (an operation is one simulation or one job) and the
// values of the metrics that apply to the mode it ran in.
type measurement struct {
	attempted, failed int
	vals              map[string]float64
	problems          []string
}

func newMeasurement() *measurement { return &measurement{vals: map[string]float64{}} }

// fail records a failed output check on n operations.
func (m *measurement) fail(n int, format string, args ...any) {
	m.failed += n
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport selects the mode's metrics. An end-to-end metric the run
// did not measure is an error; a per-layer metric is 0 when its layer
// did no work in the workload.
func buildReport(m *measurement, traced bool) (report, error) {
	if m.attempted > 0 {
		m.vals["failed_frac"] = float64(m.failed) / float64(m.attempted)
	}
	r := report{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m.vals[d.name]
		if !ok && !traced {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	return r, nil
}

func run(o options) (*measurement, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if w, ok := simWorkloads[o.workload]; ok {
		return runSim(o, w)
	}
	if o.workload == "serve-mix" {
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want sim-trade2, replay-tp or serve-mix)", o.workload)
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "", "sim-trade2, replay-tp or serve-mix")
	flag.Uint64Var(&o.seed, "seed", o.seed, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.server, "server", "", "cmpserved binary (serve-mix)")
	flag.StringVar(&o.outDir, "out", o.outDir, "directory for spans, profiles, logs and scratch files")
	flag.Parse()
	o.traced = *traceFlag == 1

	host := fingerprint()
	if b, err := json.Marshal(map[string]any{"host": host}); err == nil {
		fmt.Println(string(b))
	}
	m, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r, err := buildReport(m, o.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range m.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !r.Correct {
		os.Exit(1)
	}
}

// fingerprint identifies the host and the code a result came from.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"cpu":        cpuModel(),
	}
}

// commit is the VCS revision stamped into the binary or, when the
// checkout is not a repository, a digest of the Go sources and module
// files under the directory the benchmark runs from.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// rssSampler tracks this process's peak resident set since it last
// restarted, reading /proc/self/statm every 20 ms and on demand.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak int64 // pages
	err  error
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	var size, resident int64
	if err == nil {
		_, err = fmt.Sscan(string(b), &size, &resident)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.peak = max(s.peak, resident)
}

// restart forgets the peak so far and starts from the current size.
func (s *rssSampler) restart() {
	s.mu.Lock()
	s.peak = 0
	s.mu.Unlock()
	s.sample()
}

// peakMB returns the peak since the last restart, in MB.
func (s *rssSampler) peakMB() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak*int64(os.Getpagesize())) / 1e6
}

// finish stops the sampler and returns the first read error, if any.
func (s *rssSampler) finish() error {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// refsRange lists lo, lo+step, ... up to hi.
func refsRange(lo, hi, step int) []int {
	var out []int
	for r := lo; r <= hi; r += step {
		out = append(out, r)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
