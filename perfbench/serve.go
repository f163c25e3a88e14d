package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
	"cmpcache/internal/workload"
)

// serveClients is the closed loop's client count: scripts that each
// wait for their reply before sending the next job.
const serveClients = 2

// serveKey is one distinct single-job grid.
type serveKey struct {
	Workload    string
	Mechanism   string
	Outstanding int
	Refs        int
}

func (k serveKey) body() []byte {
	b, _ := json.Marshal(map[string]any{ // a map of strings and ints always marshals
		"workloads":   []string{k.Workload},
		"mechanisms":  []string{k.Mechanism},
		"outstanding": []int{k.Outstanding},
		"refs":        k.Refs,
	})
	return b
}

// jobStream is the seeded sequence of operations. About a third submit
// a key for the first time; the rest repeat a key whose first job has
// completed, half of them one of the recent keys (likely in the
// daemon's memory level) and half any earlier key (likely on disk).
type jobStream struct {
	mu         sync.Mutex
	rng        *rand.Rand
	pool       []serveKey // every key, shuffled; cold operations take the next
	introduced []int      // pool indices in order of first submission
	done       map[int]chan struct{}
	ops        int
}

type serveOp struct {
	seq  int
	key  int // pool index
	cold bool
}

func newJobStream(seed uint64, refs []int) *jobStream {
	var pool []serveKey
	for _, w := range workload.Names() {
		for _, m := range []string{"base", "wbht", "snarf", "combined", "reusedist", "hybridui"} {
			for out := 1; out <= 6; out++ {
				for _, r := range refs {
					pool = append(pool, serveKey{w, m, out, r})
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e57e))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &jobStream{rng: rng, pool: pool, done: map[int]chan struct{}{}}
}

// next returns the next operation, or false once every key is used.
func (s *jobStream) next() (serveOp, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := serveOp{seq: s.ops}
	s.ops++
	// Repeats skip the two newest keys, which may still be running.
	eligible := len(s.introduced) - 2
	if eligible < 1 || s.rng.IntN(3) == 0 {
		if len(s.introduced) == len(s.pool) {
			return op, false
		}
		op.key, op.cold = len(s.introduced), true
		s.introduced = append(s.introduced, op.key)
		s.done[op.key] = make(chan struct{})
		return op, true
	}
	lo := 0
	if s.rng.IntN(2) == 0 && eligible > 16 {
		lo = eligible - 16
	}
	op.key = s.introduced[lo+s.rng.IntN(eligible-lo)]
	return op, true
}

func (s *jobStream) doneChan(key int) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[key]
}

// jobView is the part of cmpserved's job view the benchmark reads.
type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// servePhase tallies one phase of the closed loop.
type servePhase struct {
	mu            sync.Mutex
	cold, warm    []float64 // ms, submit to result fetched
	submit, wait  []float64 // ms
	resultKB      []float64
	scrapes       []float64 // ms
	coldResults   [][]byte  // cold results, for the program's counters
	jobs          int
	wall          time.Duration
	before, after map[string]float64 // /metrics at the phase's ends
}

// serveRun is one serve-mix run against a cmpserved process.
type serveRun struct {
	o      options
	tr     *tracer
	m      *measurement
	d      *daemon
	http   *http.Client
	stream *jobStream

	mu         sync.Mutex     // guards the fields below and m's counts
	results    map[int][]byte // compact result JSON by key, from the cold job
	warmSeen   int
	nextScrape time.Time
}

func runServe(o options) (*measurement, error) {
	if o.server == "" {
		return nil, errors.New("serve-mix needs -server, the cmpserved binary")
	}
	dir, err := filepath.Abs(filepath.Join(o.outDir, fmt.Sprintf("serve-%d", o.seed)))
	if err != nil {
		return nil, err
	}
	// The daemon's log joins the traced run's spans by request ID; an
	// untraced run's log is removed with the scratch directory.
	logPath := filepath.Join(dir, "cmpserved.log")
	if o.traced {
		logPath = filepath.Join(o.outDir, fmt.Sprintf("cmpserved-%s-seed%d.log", o.workload, o.seed))
		os.Remove(logPath)
	}
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &serveRun{
		o: o, tr: newTracer(), m: newMeasurement(),
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
		},
		stream:  newJobStream(o.seed, o.serveRefs),
		results: map[int][]byte{},
	}
	m := r.m

	// Set-up is daemon boot until /readyz answers 200, timed several
	// times on fresh cache directories; the last daemon serves the run.
	var boots []float64
	for i := 0; i < o.setupReps; i++ {
		if r.d != nil {
			if _, err := r.d.stop(); err != nil {
				return nil, err
			}
		}
		d, boot, err := startDaemon(o, filepath.Join(dir, fmt.Sprintf("cache-%d", i)), logPath)
		if err != nil {
			return nil, err
		}
		r.d = d
		boots = append(boots, boot.Seconds())
	}
	defer r.d.kill()
	m.vals["setup_s"] = median(boots)

	untraced := o.seconds
	if o.traced {
		untraced = o.seconds / 2
	}
	ph, err := r.phase(untraced)
	if err != nil {
		return nil, err
	}
	r.endToEnd(ph)

	if o.traced {
		if err := r.tracedPhase(); err != nil {
			return nil, err
		}
	}
	if err := r.check(); err != nil {
		return nil, err
	}
	rss, err := r.d.stop()
	if err != nil {
		return nil, err
	}
	m.vals["max_rss_mb"] = rss
	if o.traced {
		return m, writeSpans(o, r.tr)
	}
	return m, nil
}

// phase runs the closed loop for secs seconds.
func (r *serveRun) phase(secs float64) (*servePhase, error) {
	ph := &servePhase{}
	var err error
	if ph.before, err = r.scrape(spanRef{}, nil); err != nil {
		return nil, err
	}
	r.nextScrape = time.Now()
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := r.maybeScrape(ph); err != nil {
					errs[c] = err
					return
				}
				op, ok := r.stream.next()
				if !ok {
					errs[c] = errors.New("serve-mix ran out of distinct keys; enlarge the key pool")
					return
				}
				if err := r.job(ph, op); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if ph.after, err = r.scrape(spanRef{}, nil); err != nil {
		return nil, err
	}
	return ph, nil
}

// maybeScrape fetches /metrics when a scrape is due, as a Prometheus
// scraping once a second would.
func (r *serveRun) maybeScrape(ph *servePhase) error {
	r.mu.Lock()
	due := !time.Now().Before(r.nextScrape)
	if due {
		r.nextScrape = time.Now().Add(time.Second)
	}
	r.mu.Unlock()
	if !due {
		return nil
	}
	_, err := r.scrape(spanRef{}, ph)
	return err
}

// scrape reads the daemon's unlabelled /metrics series; with ph set,
// the scrape's latency is recorded.
func (r *serveRun) scrape(parent spanRef, ph *servePhase) (map[string]float64, error) {
	s := r.tr.begin("GET /metrics", parent, "")
	body, err := r.get("/metrics")
	d := r.tr.end(s)
	if err != nil {
		return nil, err
	}
	if ph != nil {
		ph.mu.Lock()
		ph.scrapes = append(ph.scrapes, ms(d))
		ph.mu.Unlock()
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

// job runs one operation: submit, wait for done when the job must
// simulate, fetch the result, and check it.
func (r *serveRun) job(ph *servePhase, op serveOp) error {
	if !op.cold { // a repeat follows its key's first job
		select {
		case <-r.stream.doneChan(op.key):
		case <-time.After(2 * time.Minute):
			return fmt.Errorf("the first job for %+v never completed", r.stream.pool[op.key])
		}
	}
	key := r.stream.pool[op.key]
	reqID := fmt.Sprintf("perfbench-%d-%d", r.o.seed, op.seq)
	root := r.tr.begin("job", spanRef{}, reqID)

	s := r.tr.begin("POST /v1/jobs", root, reqID)
	status, body, err := r.do(http.MethodPost, "/v1/jobs", reqID, key.body())
	submit := r.tr.end(s)
	failed := func(format string, args ...any) error {
		r.tr.end(root)
		r.mu.Lock()
		r.m.attempted++
		r.m.fail(1, "job %s (%+v): %s", reqID, key, fmt.Sprintf(format, args...))
		r.mu.Unlock()
		if op.cold {
			close(r.stream.doneChan(op.key))
		}
		return nil
	}
	if err != nil {
		return failed("submit: %v", err)
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return failed("submit answered %d: %s", status, bytes.TrimSpace(body))
	}
	var sub struct{ Jobs []jobView }
	if err := json.Unmarshal(body, &sub); err != nil || len(sub.Jobs) != 1 {
		return failed("submit answer %q: %v", body, err)
	}
	v := sub.Jobs[0]
	if v.Cached == op.cold {
		return failed("cached = %v on a %s submission", v.Cached, map[bool]string{true: "first", false: "repeat"}[op.cold])
	}
	var wait time.Duration
	if v.Status != "done" {
		s = r.tr.begin("GET /v1/jobs/{id}/events", root, reqID)
		err := r.awaitDone(v.ID, reqID)
		wait = r.tr.end(s)
		if err != nil {
			return failed("%v", err)
		}
	}
	s = r.tr.begin("GET /v1/jobs/{id}", root, reqID)
	status, body, err = r.do(http.MethodGet, "/v1/jobs/"+v.ID, reqID, nil)
	r.tr.end(s)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("answered %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &v)
	}
	if err != nil {
		return failed("fetch: %v", err)
	}
	latency := r.tr.end(root)
	if v.Status != "done" {
		return failed("status %s: %s", v.Status, v.Error)
	}
	var result bytes.Buffer
	if err := json.Compact(&result, v.Result); err != nil {
		return failed("result: %v", err)
	}

	r.mu.Lock()
	if op.cold {
		r.results[op.key] = result.Bytes()
	} else if r.warmSeen++; r.o.inject == "warm-byte" && r.warmSeen == 1 {
		result.Bytes()[result.Len()/2] ^= 1
	}
	want := r.results[op.key]
	r.mu.Unlock()
	if op.cold {
		close(r.stream.doneChan(op.key))
	} else if !bytes.Equal(result.Bytes(), want) {
		return failed("warm result differs from the cold result for its key")
	}

	r.mu.Lock()
	r.m.attempted++
	r.mu.Unlock()
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.jobs++
	ph.submit = append(ph.submit, ms(submit))
	ph.resultKB = append(ph.resultKB, float64(result.Len())/1e3)
	if op.cold {
		ph.cold = append(ph.cold, ms(latency))
		ph.wait = append(ph.wait, ms(wait))
		ph.coldResults = append(ph.coldResults, result.Bytes())
	} else {
		ph.warm = append(ph.warm, ms(latency))
	}
	return nil
}

// awaitDone follows the job's server-sent events until its "done"
// frame and checks the final status.
func (r *serveRun) awaitDone(id, reqID string) error {
	req, err := http.NewRequest(http.MethodGet, r.d.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := r.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	isDone := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			isDone = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && isDone {
			var d struct{ Status, Error string }
			if err := json.Unmarshal([]byte(data), &d); err != nil {
				return err
			}
			if d.Status != "done" {
				return fmt.Errorf("job ended %s: %s", d.Status, d.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended before the done frame")
}

func (r *serveRun) do(method, path, reqID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, r.d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (r *serveRun) get(path string) ([]byte, error) {
	status, b, err := r.do(http.MethodGet, path, "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s answered %d", path, status)
	}
	return b, err
}

func (r *serveRun) endToEnd(ph *servePhase) {
	v := r.m.vals
	v["cold_p50_ms"] = quantile(ph.cold, 0.5)
	v["cold_p90_ms"] = quantile(ph.cold, 0.9)
	v["warm_p50_ms"] = quantile(ph.warm, 0.5)
	v["warm_p90_ms"] = quantile(ph.warm, 0.9)
	v["jobs_per_s"] = float64(ph.jobs) / ph.wall.Seconds()
	v["bench.cold_samples"] = float64(len(ph.cold))
	v["bench.warm_samples"] = float64(len(ph.warm))
	var refs float64
	for _, b := range ph.coldResults {
		var res struct{ RefsCompleted float64 }
		if json.Unmarshal(b, &res) == nil {
			refs += res.RefsCompleted
		}
	}
	v["refs_per_s"] = ratio(refs, delta(ph, "cmpserved_job_run_seconds_sum"))
}

func delta(ph *servePhase, name string) float64 { return ph.after[name] - ph.before[name] }

// tracedPhase repeats the closed loop with spans on while the daemon
// records a CPU profile, and derives the per-layer metrics.
func (r *serveRun) tracedPhase() error {
	secs := r.o.seconds / 2
	profSecs := int(secs)
	if profSecs < 1 {
		profSecs = 1
	}
	type profResult struct {
		b   []byte
		err error
	}
	profc := make(chan profResult, 1)
	go func() {
		b, err := r.get("/debug/pprof/profile?seconds=" + strconv.Itoa(profSecs))
		profc <- profResult{b, err}
	}()
	r.tr.setOn(true)
	ph, err := r.phase(secs)
	r.tr.setOn(false)
	prof := <-profc
	if err != nil {
		return err
	}
	if prof.err != nil {
		return prof.err
	}
	v := r.m.vals
	v["bench.trace_overhead_frac"] = 1 - ratio(float64(ph.jobs)/ph.wall.Seconds(), v["jobs_per_s"])
	v["sweep.queue_wait_s"] = ratio(delta(ph, "cmpserved_job_queue_seconds_sum"), delta(ph, "cmpserved_job_queue_seconds_count"))
	v["sweep.job_run_s"] = ratio(delta(ph, "cmpserved_job_run_seconds_sum"), delta(ph, "cmpserved_job_run_seconds_count"))
	v["serve.submit_ms"] = median(ph.submit)
	v["serve.wait_ms"] = median(ph.wait)
	v["serve.cache_hit_frac"] = ratio(delta(ph, "cmpserved_cache_hits_total"), delta(ph, "cmpserved_jobs_submitted_total"))
	v["serve.cache_disk_hits"] = delta(ph, "cmpserved_result_cache_l2_hits_total")
	v["serve.sim_runs"] = delta(ph, "cmpserved_sim_runs_total")
	v["serve.collapsed"] = delta(ph, "cmpserved_jobs_collapsed_total")
	v["serve.rejected"] = delta(ph, "cmpserved_jobs_rejected_total")
	v["serve.result_kb"] = median(ph.resultKB)
	v["telemetry.scrape_ms"] = median(ph.scrapes)
	results := make([]*system.Results, len(ph.coldResults))
	for i, b := range ph.coldResults {
		results[i] = new(system.Results)
		if err := json.Unmarshal(b, results[i]); err != nil {
			return fmt.Errorf("cold result: %w", err)
		}
	}
	resultCounters(v, results)
	return addProfile(v, prof.b, r.o)
}

// check compares a sample of cold results with direct in-process runs
// of the same sweep.Job and the daemon's simulation count with the
// distinct keys submitted. In the traced run the direct runs also give
// the system layer's timings.
func (r *serveRun) check() error {
	final, err := r.scrape(spanRef{}, nil)
	if err != nil {
		return err
	}
	r.stream.mu.Lock()
	introduced := append([]int(nil), r.stream.introduced...)
	r.stream.mu.Unlock()
	if got := final["cmpserved_sim_runs_total"]; got != float64(len(introduced)) {
		r.m.fail(1, "cmpserved_sim_runs_total = %v, want %d distinct keys", got, len(introduced))
	}
	r.tr.setOn(r.o.traced)
	defer r.tr.setOn(false)
	var allocs, allocMB, nsPerEvent []float64
	for _, k := range introduced[:min(3, len(introduced))] {
		key := r.stream.pool[k]
		var mech config.Mechanism
		if err := mech.UnmarshalText([]byte(key.Mechanism)); err != nil {
			return err
		}
		job := sweep.Job{Workload: key.Workload, Mechanism: mech, Outstanding: key.Outstanding, RefsPerThread: key.Refs}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data, res, run, err := r.direct(job)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		nsPerEvent = append(nsPerEvent, ratio(float64(run), float64(res.EventsFired)))
		if !bytes.Equal(data, r.results[k]) {
			r.m.fail(1, "cold result for %+v differs from a direct in-process run", key)
		}
	}
	if r.o.traced {
		v := r.m.vals
		v["workload.generate_s"] = median(r.tr.durations("workload.Profile.Generate"))
		v["system.build_s"] = median(r.tr.durations("system.New"))
		v["system.run_s"] = median(r.tr.durations("system.Run"))
		v["system.marshal_s"] = median(r.tr.durations("Results.MarshalJSON"))
		v["system.allocs"] = median(allocs)
		v["system.alloc_mb"] = median(allocMB)
		v["sim.ns_per_event"] = median(nsPerEvent)
	}
	return nil
}

// direct runs job in process the way the daemon's executor does, with
// serial shards, and returns the Results JSON and the event-loop time.
func (r *serveRun) direct(job sweep.Job) ([]byte, *system.Results, time.Duration, error) {
	root := r.tr.begin("direct run", spanRef{}, "")
	defer r.tr.end(root)
	p, err := workload.ByName(job.Workload)
	if err != nil {
		return nil, nil, 0, err
	}
	p.RefsPerThread = job.RefsPerThread
	s := r.tr.begin("workload.Profile.Generate", root, "")
	tr, err := p.Generate()
	r.tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	s = r.tr.begin("system.New", root, "")
	sys, err := system.New(job.Config(), tr)
	r.tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	s = r.tr.begin("system.Run", root, "")
	res := sys.Run()
	run := r.tr.end(s)
	s = r.tr.begin("Results.MarshalJSON", root, "")
	data, err := res.MarshalJSON()
	r.tr.end(s)
	return data, res, run, err
}

// daemon is a running cmpserved process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	logged chan struct{} // closed once the stderr pipe reaches EOF
	exited bool
}

// startDaemon starts cmpserved with its default options apart from the
// listen address, the cache directory and the memory level's size, and
// returns once /readyz answers 200, with the time that took.
func startDaemon(o options, cacheDir, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(o.server, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir,
		"-l1-entries", strconv.Itoa(o.l1Entries))
	// The daemon must not outlive the benchmark, even when it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1) // the one listening line; never blocks the copier
	go func() {
		defer close(d.logged)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "cmpserved: listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	select {
	case d.url = <-addr:
	case <-d.logged:
		d.kill()
		return nil, 0, errors.New("cmpserved exited before it listened")
	case <-ctx.Done():
		d.kill()
		return nil, 0, errors.New("cmpserved did not report its listen address")
	}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if ctx.Err() != nil {
			d.kill()
			return nil, 0, errors.New("cmpserved never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down gracefully, waits for it to exit, and
// returns its peak resident set in MB.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	<-d.logged
	err := d.cmd.Wait()
	d.exited = true
	if err != nil {
		return 0, fmt.Errorf("cmpserved: %w", err)
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("cmpserved: no resource usage")
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}

// kill ends a daemon that was not stopped, and waits for it.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	d.cmd.Process.Kill()
	<-d.logged
	d.cmd.Wait()
	d.exited = true
}
