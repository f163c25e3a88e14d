package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// simWorkload is an in-process simulation workload: one built-in
// profile and mechanism, run repeatedly at the tools' default shard
// setting.
type simWorkload struct {
	profile   string
	mechanism config.Mechanism
	replay    bool // capture the trace to a sharded store and stream it back
}

var simWorkloads = map[string]simWorkload{
	"sim-trade2": {profile: "trade2", mechanism: config.Combined},
	"replay-tp":  {profile: "tp", mechanism: config.WBHT, replay: true},
}

// simRun is one sim workload run: its inputs, the tracer and the
// simulations done so far.
type simRun struct {
	o      options
	w      simWorkload
	cfg    config.Config
	shards int // what the tools' default "-shards auto" resolves to
	tr     *tracer
	rss    *rssSampler // set while the untraced phase runs

	records int64          // references in the generated trace
	mem     *trace.Trace   // sim-trade2's in-memory trace
	src     *trace.Sharded // replay-tp's opened capture
	dir     string         // replay-tp's capture directory

	ops []simOp
}

// simOp is one simulation: an operation of the workload.
type simOp struct {
	cold               bool // did the whole set-up from the seed first
	latency, run, mars time.Duration
	rssMB              float64 // peak resident set while it ran
	allocs, allocBytes uint64
	res                *system.Results
	data               []byte
}

// refsPerSec is the simulated references completed per second of event
// loop plus Results marshal.
func (op *simOp) refsPerSec() float64 {
	return ratio(float64(op.res.RefsCompleted), (op.run + op.mars).Seconds())
}

func runSim(o options, w simWorkload) (*measurement, error) {
	shards, err := sweep.ParseShards("auto")
	if err != nil {
		return nil, err
	}
	r := &simRun{
		o: o, w: w, shards: shards, tr: newTracer(),
		cfg: config.Default().WithMechanism(w.mechanism),
		dir: filepath.Join(o.outDir, fmt.Sprintf("capture-%s-%d", o.workload, o.seed)),
	}
	defer r.close()
	m := newMeasurement()

	// Set-up is timed several times, each from a collected heap like a
	// simulation's; setup_s is the median. Spans are kept only in the
	// traced run.
	r.tr.setOn(o.traced)
	var setups []float64
	for i := 0; i < o.setupReps; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		if _, err := r.setup(spanRef{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.vals["setup_s"] = median(setups)
	r.tr.setOn(false)

	untraced := o.seconds
	if o.traced {
		untraced = o.seconds / 2
	}
	r.rss = startRSSSampler()
	wall, err := r.phase(untraced, false)
	err = errors.Join(err, r.rss.finish())
	r.rss = nil
	if err != nil {
		return nil, err
	}
	r.endToEnd(m, wall)

	if o.traced {
		if err := r.tracedPhase(m); err != nil {
			return nil, err
		}
	}
	return m, r.check(m)
}

// setup makes the workload's inputs from the seed and builds a system
// on them: synthesize the trace and, for replay, write the sharded
// capture and open it.
func (r *simRun) setup(parent spanRef) (*system.System, error) {
	p, err := workload.ByName(r.w.profile)
	if err != nil {
		return nil, err
	}
	p.Seed = r.o.seed
	p.RefsPerThread = r.o.refsPerThread
	s := r.tr.begin("workload.Profile.Generate", parent, "")
	tr, err := p.Generate()
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	r.records = int64(len(tr.Records))
	if !r.w.replay {
		r.mem = tr
		return r.build(parent)
	}
	if r.src != nil {
		r.src.Close()
		r.src = nil
	}
	s = r.tr.begin("trace.WriteSharded", parent, "")
	_, err = trace.WriteSharded(r.dir, tr, trace.ShardOptions{})
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = r.tr.begin("trace.OpenSharded", parent, "")
	r.src, err = trace.OpenSharded(r.dir)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	return r.build(parent)
}

func (r *simRun) build(parent spanRef) (*system.System, error) {
	if r.w.replay {
		s := r.tr.begin("system.NewStream", parent, "")
		defer r.tr.end(s)
		return system.NewStream(r.cfg, r.src)
	}
	s := r.tr.begin("system.New", parent, "")
	defer r.tr.end(s)
	return system.New(r.cfg, r.mem)
}

const (
	coldEvery = 3 // every third simulation of the untraced phase is cold
	minSims   = 3 // simulations per phase, at least
)

// phase runs simulations for secs seconds, and at least minSims. In the
// untraced phase every coldEvery-th one, starting with the first, is
// cold: it redoes the whole set-up from the seed before it simulates.
// Each simulation starts, as one in a fresh cmpsim process does, from a
// collected heap whose free memory is back with the OS, so its peak
// resident set is its own. The collection is untimed but counts in the
// phase's wall time, which phase returns.
func (r *simRun) phase(secs float64, traced bool) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < minSims || time.Since(t0).Seconds() < secs; i++ {
		op := simOp{cold: !traced && i%coldEvery == 0}
		debug.FreeOSMemory()
		if r.rss != nil {
			r.rss.restart()
		}
		var before, after runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
		}
		root := r.tr.begin("simulation", spanRef{}, "")
		var sys *system.System
		var err error
		if op.cold {
			sys, err = r.setup(root)
		} else {
			sys, err = r.build(root)
		}
		if err != nil {
			return 0, err
		}
		sys.SetWorkers(r.shards)
		s := r.tr.begin("system.Run", root, "")
		op.res = sys.Run()
		op.run = r.tr.end(s)
		if r.o.inject == "results-field" && len(r.ops) == 0 {
			op.res.Cycles++
		}
		s = r.tr.begin("Results.MarshalJSON", root, "")
		op.data, err = op.res.MarshalJSON()
		op.mars = r.tr.end(s)
		if err != nil {
			return 0, err
		}
		op.latency = r.tr.end(root)
		if r.rss != nil {
			op.rssMB = r.rss.peakMB()
		}
		if traced {
			runtime.ReadMemStats(&after)
			op.allocs = after.Mallocs - before.Mallocs
			op.allocBytes = after.TotalAlloc - before.TotalAlloc
		}
		r.ops = append(r.ops, op)
	}
	return time.Since(t0), nil
}

func (r *simRun) endToEnd(m *measurement, wall time.Duration) {
	var rates, rss, cold, warm []float64
	for _, op := range r.ops {
		rates = append(rates, op.refsPerSec())
		rss = append(rss, op.rssMB)
		if op.cold {
			cold = append(cold, ms(op.latency))
		} else {
			warm = append(warm, ms(op.latency))
		}
	}
	m.vals["refs_per_s"] = median(rates)
	m.vals["max_rss_mb"] = median(rss)
	m.vals["cold_p50_ms"] = quantile(cold, 0.5)
	m.vals["cold_p90_ms"] = quantile(cold, 0.9)
	m.vals["warm_p50_ms"] = quantile(warm, 0.5)
	m.vals["warm_p90_ms"] = quantile(warm, 0.9)
	m.vals["jobs_per_s"] = float64(len(r.ops)) / wall.Seconds()
	m.vals["bench.cold_samples"] = float64(len(cold))
	m.vals["bench.warm_samples"] = float64(len(warm))
}

// tracedPhase repeats the simulations with spans and a CPU profile on
// and derives the per-layer metrics.
func (r *simRun) tracedPhase(m *measurement) error {
	untracedRate := m.vals["refs_per_s"]
	first := len(r.ops)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	r.tr.setOn(true)
	_, err := r.phase(r.o.seconds/2, true)
	r.tr.setOn(false)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	traced := r.ops[first:]

	var rates, allocs, allocMB []float64
	for _, op := range traced {
		rates = append(rates, op.refsPerSec())
		allocs = append(allocs, float64(op.allocs))
		allocMB = append(allocMB, float64(op.allocBytes)/1e6)
	}
	v := m.vals
	v["bench.trace_overhead_frac"] = 1 - ratio(median(rates), untracedRate)
	v["workload.generate_s"] = median(r.tr.durations("workload.Profile.Generate"))
	v["system.build_s"] = median(append(r.tr.durations("system.New"), r.tr.durations("system.NewStream")...))
	v["system.run_s"] = median(r.tr.durations("system.Run"))
	v["system.marshal_s"] = median(r.tr.durations("Results.MarshalJSON"))
	v["system.allocs"] = median(allocs)
	v["system.alloc_mb"] = median(allocMB)
	res := traced[len(traced)-1].res
	resultCounters(v, []*system.Results{res})
	v["sim.ns_per_event"] = ratio(v["system.run_s"]*1e9, float64(res.EventsFired))
	sh := &res.Sharding
	v["round.rounds"] = float64(sh.Rounds)
	v["round.parallel_rounds"] = float64(sh.ParallelRounds)
	v["round.events_per_round"] = ratio(float64(res.EventsFired), float64(sh.Rounds))
	v["round.horizon_next_global_frac"] = ratio(float64(sh.HorizonNextGlobal), float64(sh.ParallelRounds))
	v["round.barrier_wait_s"] = float64(sh.BarrierWaitTotalNs()) / 1e9

	if r.w.replay {
		v["trace.write_s"] = median(r.tr.durations("trace.WriteSharded"))
		v["trace.open_s"] = median(r.tr.durations("trace.OpenSharded"))
		v["trace.max_buffered_records"] = float64(r.src.MaxBufferedRecords())
		mb, err := dirMB(r.dir)
		if err != nil {
			return err
		}
		v["trace.capture_mb"] = mb
		r.tr.setOn(true)
		err = r.drain()
		r.tr.setOn(false)
		if err != nil {
			return err
		}
		v["trace.decode_s"] = median(r.tr.durations("trace.decode"))
	}
	if err := addProfile(v, prof.Bytes(), r.o); err != nil {
		return err
	}
	return writeSpans(r.o, r.tr)
}

// resultCounters sums the program's own counters over results.
func resultCounters(v map[string]float64, results []*system.Results) {
	var hits float64
	for _, res := range results {
		v["sim.events"] += float64(res.EventsFired)
		v["cache.l2_accesses"] += float64(res.L2.Accesses)
		v["l2.mshr_attach"] += float64(res.L2.MSHRAttach)
		v["l2.clean_wb_queued"] += float64(res.L2.CleanWBQueued)
		v["l3.demand_lookups"] += float64(res.L3DemandLookups)
		v["l3.retries"] += float64(res.L3RetriesIssued)
		v["ring.address_txns"] += float64(res.AddressTxns)
		v["ring.data_transfers"] += float64(res.DataTransfers)
		v["coherence.snoops_observed"] += float64(res.L2.SnoopsObserved)
		v["wbht.consults"] += float64(res.WBHT.Consults)
		v["wbht.aborts"] += float64(res.L2.CleanWBAborted)
		v["snarf.accepts"] += float64(res.Snarf.Accepts)
		hits += float64(res.L2.Hits)
	}
	v["cache.l2_hit_rate"] = ratio(hits, v["cache.l2_accesses"])
}

// drain reads every thread stream of the capture to the end once: the
// decode cost replay pays, without the simulator.
func (r *simRun) drain() error {
	s := r.tr.begin("trace.decode", spanRef{}, "")
	defer r.tr.end(s)
	for tid := 0; tid < r.src.Threads(); tid++ {
		st := r.src.Stream(tid)
		for {
			chunk, err := st.NextChunk()
			if err != nil {
				return err
			}
			if chunk == nil {
				break
			}
		}
	}
	return nil
}

// check compares every simulation with an untimed serial run of the
// same trace and configuration from memory, and checks the counts the
// simulator must conserve.
func (r *simRun) check(m *measurement) error {
	m.attempted = len(r.ops)
	tr := r.mem
	if r.w.replay {
		if err := r.src.Verify(); err != nil {
			m.fail(len(r.ops), "capture verify: %v", err)
		}
		// The replay inputs were dropped after capture; regenerate them.
		p, err := workload.ByName(r.w.profile)
		if err != nil {
			return err
		}
		p.Seed = r.o.seed
		p.RefsPerThread = r.o.refsPerThread
		if tr, err = p.Generate(); err != nil {
			return err
		}
	}
	sys, err := system.New(r.cfg, tr)
	if err != nil {
		return err
	}
	sys.SetWorkers(1)
	want, err := sys.Run().MarshalJSON()
	if err != nil {
		return err
	}
	for i, op := range r.ops {
		res := op.res
		switch {
		case !bytes.Equal(op.data, want):
			m.fail(1, "simulation %d: Results JSON differs from the serial in-memory run", i)
		case res.RefsIssued != uint64(r.records) || res.RefsCompleted != uint64(r.records):
			m.fail(1, "simulation %d: issued %d, completed %d, generated %d references",
				i, res.RefsIssued, res.RefsCompleted, r.records)
		case res.ResidualMSHRs != 0 || res.ResidualWBQueued != 0 || res.ResidualWBInFlight != 0 ||
			res.ResidualL3QueueTokens != 0:
			m.fail(1, "simulation %d: residual resources at the end of the run", i)
		}
	}
	return nil
}

func (r *simRun) close() {
	if r.src != nil {
		r.src.Close()
	}
	os.RemoveAll(r.dir)
}

// dirMB sums the sizes of the files in dir.
func dirMB(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return float64(n) / 1e6, nil
}
