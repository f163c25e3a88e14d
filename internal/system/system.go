// Package system wires the full chip multiprocessor of Figure 1 —
// sixteen SMT threads, four sliced L2 caches, the snoop-collecting ring,
// the off-chip L3 victim cache and the memory controller — and
// orchestrates every coherence transaction end to end under the
// configured write-back management mechanism.
//
// The protocol sequencing model: a transaction's snoop, combine and
// state transitions all occur atomically at its combined-response event
// (tag arrays are therefore never in transient states), while data
// movement books latency and bandwidth on the ring, L3 and memory
// resources and completes the requesting thread later. This is the
// standard state-at-commit simplification for bus-serialized protocols;
// the cycle cost of in-flight windows is preserved, only their
// observability is collapsed.
//
// Execution is sharded by L2 slice: each slice's front end (threads,
// tag probes, MSHRs, write-back queue) runs on its own event wheel,
// and the bus FIFO — the chip's only global ordering point — lives on a
// global wheel that a deterministic round coordinator interleaves with
// the shards (see parallel.go and DESIGN.md §15). Every phase runs
// inline on the caller's goroutine.
package system

import (
	"context"
	"fmt"

	"cmpcache/internal/audit"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/core"
	"cmpcache/internal/l2"
	"cmpcache/internal/l3"
	"cmpcache/internal/mem"
	"cmpcache/internal/metrics"
	"cmpcache/internal/ring"
	"cmpcache/internal/sim"
	"cmpcache/internal/trace"
	"cmpcache/internal/txlat"
	"cmpcache/internal/wbpolicy"
)

// System is one fully wired simulated chip.
type System struct {
	cfg    config.Config
	engine *sim.Engine // global wheel: bus combines and everything behind them

	shards []*shard // one per L2 slice; shards[i] owns l2s[i]

	l2s       []*l2.Cache
	l3        *l3.Cache
	mem       *mem.Controller
	ring      *ring.Ring
	collector *coherence.Collector
	rswitch   *core.RetrySwitch

	// policy is the configured write-back policy's chip-wide half; its
	// per-L2 agents live inside the l2.Caches. All chip hooks run at
	// bus combine events (serial phase).
	policy wbpolicy.Chip

	// pstats accumulates the round coordinator's execution-shape
	// counters; copied into Results.Sharding at the end of the run.
	pstats ShardingStats

	wbInFlight []bool // one write-back bus transaction at a time per L2

	reuse *reuseTracker

	// responses is the reused snoop-response buffer for combine events
	// (the collector never retains it).
	responses []coherence.AgentResponse

	// Event handlers, bound once in New so scheduling a transaction
	// phase never allocates a closure.
	hCombineDemand  sim.Handler
	hFillReady      sim.Handler
	hCompleteFill   sim.Handler
	hCombineWB      sim.Handler
	hFinishWB       sim.Handler
	hWBArriveL3     sim.Handler
	hRetireL3Write  sim.Handler
	hReleaseL3Token sim.Handler

	// everInL3 tracks lines that have ever completed an L3 insert,
	// splitting non-redundant clean write backs into first-time writes
	// vs. lines the L3 has since lost (diagnostics for Table 1).
	everInL3     map[uint64]struct{}
	cleanWBFirst uint64
	cleanWBLost  uint64

	// probe, when attached, samples the interval metrics series; tracer
	// is its per-transaction event trace (nil unless tracing). Both are
	// nil in normal runs — the hot paths pay one nil check each.
	probe  *metrics.Probe
	tracer *metrics.TraceWriter

	// auditor, when attached, is the shadow invariant checker (nil in
	// normal runs — hook sites pay one nil check each). auditedFired
	// tracks how many shard events have been credited to its sweep
	// cadence.
	auditor      *audit.Auditor
	auditedFired uint64

	// lat, when attached, is the per-transaction latency-attribution
	// collector (nil in normal runs — hook sites pay one nil check each).
	lat *txlat.Collector

	// System-level counters (component-level ones live in the
	// components).
	fillsFromPeer   uint64
	fillsFromL3     uint64
	fillsFromMem    uint64
	upgrades        uint64
	upgradeUpdates  uint64 // upgrades that updated sharers in place (hybridui)
	updatePushes    uint64 // update commits that pushed data to surviving sharers
	demandTxns      uint64
	wbTxns          uint64
	wbSquashedByL3  uint64
	wbSquashedPeer  uint64
	wbSnarfed       uint64
	wbToL3          uint64
	wbRetried       uint64
	wbCancelled     uint64
	snarfFallbacks  uint64 // winner could not install after all
	upgradeRestarts uint64 // upgrade found its line invalidated; became RWITM
}

// newCore builds everything but the thread feed: components, policy,
// and the bound event handlers. New and NewStream attach the shards.
func newCore(cfg config.Config) *System {
	s := &System{
		cfg:       cfg,
		engine:    sim.NewEngine(),
		l3:        l3.New(&cfg),
		mem:       mem.New(&cfg),
		ring:      ring.New(&cfg),
		collector: coherence.NewCollector(),
		rswitch:   core.NewRetrySwitch(cfg.WBHT),
		reuse:     newReuseTracker(),
		everInL3:  make(map[uint64]struct{}),
	}
	s.policy = wbpolicy.New(&s.cfg)
	for i := 0; i < cfg.NumL2(); i++ {
		s.l2s = append(s.l2s, l2.New(i, &s.cfg, s.policy.Agent(i)))
	}
	s.wbInFlight = make([]bool, cfg.NumL2())
	s.responses = make([]coherence.AgentResponse, 0, cfg.NumL2()+2)

	s.hCombineDemand = func(d sim.EventData) {
		s.combineDemand(d.Ptr.(l2Handle), d.Key, coherence.TxnKind(d.Kind))
	}
	s.hFillReady = s.fillDataReady
	s.hCompleteFill = func(d sim.EventData) {
		s.shards[d.Ptr.(l2Handle).ID()].completeFill(d.Key, coherence.TxnKind(d.Kind))
	}
	s.hCombineWB = func(d sim.EventData) {
		s.combineWB(d.Ptr.(l2Handle), d.Key, coherence.TxnKind(d.Kind), d.Flag)
	}
	s.hFinishWB = func(d sim.EventData) { s.finishWB(int(d.Key)) }
	s.hWBArriveL3 = s.wbArriveL3
	s.hRetireL3Write = func(d sim.EventData) { s.retireL3Write(d.Key, coherence.TxnKind(d.Kind)) }
	s.hReleaseL3Token = func(sim.EventData) { s.releaseL3Token() }
	return s
}

// New validates cfg, builds all components and loads tr's per-thread
// streams. Run() executes the workload to completion.
func New(cfg config.Config, tr *trace.Trace) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Threads > cfg.Threads() {
		return nil, fmt.Errorf("system: trace has %d threads, chip has %d", tr.Threads, cfg.Threads())
	}
	s := newCore(cfg)

	streams := tr.PerThread()
	// Pad to the chip's thread count so thread->L2 mapping stays fixed.
	for len(streams) < cfg.Threads() {
		streams = append(streams, nil)
	}
	tpl := cfg.ThreadsPerL2()
	for i := 0; i < cfg.NumL2(); i++ {
		sub := streams[i*tpl : (i+1)*tpl]
		recs := 0
		for _, st := range sub {
			recs += len(st)
		}
		s.shards = append(s.shards, newShard(s, i, sub, recs))
	}

	// Pre-size the global event queue from the workload: its high-water
	// mark tracks in-flight bus transactions, bounded by what the trace
	// can ever put in flight at once.
	events := cfg.Threads()*cfg.MaxOutstanding*4 + 64
	if limit := 2*len(tr.Records) + 64; events > limit {
		events = limit
	}
	s.engine.Grow(events)
	return s, nil
}

// NewStream is New over a streaming trace source: the thread feeds pull
// chunked per-thread iterators (trace.Source.Stream) instead of
// materialized record slices, so replay memory is bounded by the
// source's chunk size rather than the trace length. A completed run is
// bit-identical to New over the equivalent in-memory trace — the feed
// only changes where records are buffered, never when they issue.
func NewStream(cfg config.Config, src trace.Source) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src.Threads() <= 0 {
		return nil, fmt.Errorf("system: source has %d threads, must be positive", src.Threads())
	}
	if src.Threads() > cfg.Threads() {
		return nil, fmt.Errorf("system: trace has %d threads, chip has %d", src.Threads(), cfg.Threads())
	}
	s := newCore(cfg)

	// clamp converts a record count to the int sizing hints expect,
	// saturating on (hypothetical) >2^62-record sources.
	clamp := func(n int64) int {
		if n > int64(1)<<31 {
			return 1 << 31
		}
		return int(n)
	}
	tpl := cfg.ThreadsPerL2()
	for i := 0; i < cfg.NumL2(); i++ {
		streams := make([]trace.Stream, tpl)
		var recs int64
		for j := 0; j < tpl; j++ {
			tid := i*tpl + j
			if tid < src.Threads() && src.ThreadRecords(tid) > 0 {
				streams[j] = src.Stream(tid)
				recs += src.ThreadRecords(tid)
			}
		}
		sh, err := newShardStream(s, i, streams, clamp(recs))
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}

	events := cfg.Threads()*cfg.MaxOutstanding*4 + 64
	if limit := 2*clamp(src.Records()) + 64; events > limit {
		events = limit
	}
	s.engine.Grow(events)
	return s, nil
}

// Config returns the system's configuration.
func (s *System) Config() *config.Config { return &s.cfg }

// Run executes the workload to completion and returns the results. It
// panics if every event wheel drains while threads still have work,
// which would indicate a lost completion (a simulator bug, not a
// workload property).
func (s *System) Run() *Results {
	if err := s.runRounds(context.Background()); err != nil {
		panic(err) // unreachable: the background context never cancels
	}
	return s.finish()
}

// cancelCheckEvery is how many coordinator rounds plus serial-phase
// events RunContext lets pass between context polls (it also polls once
// on entry). Polling happens outside the event stream — nothing is
// scheduled, Fired does not move, the simulation is bit-identical to
// Run — so the granularity only bounds cancellation latency, while
// keeping the poll's lock off the per-round path.
const cancelCheckEvery = 8192

// RunContext is Run with cooperative cancellation: it executes the
// workload to completion unless ctx is cancelled first, in which case
// it abandons the remaining events and returns ctx's error. A completed
// run is bit-identical to Run() — the context poll observes the engines
// between events and never perturbs them.
func (s *System) RunContext(ctx context.Context) (*Results, error) {
	if err := s.runRounds(ctx); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// finish asserts the drained wheels left no thread mid-access, drains
// the auditor and gathers results.
func (s *System) finish() *Results {
	if !s.threadsDone() {
		panic(fmt.Sprintf("system: engine drained with %d accesses outstanding", s.threadsOutstanding()))
	}
	if s.auditor != nil {
		s.auditor.Drain(s.lastTime())
	}
	return s.results()
}

// lastTime returns the latest clock across all wheels — the time the
// simulation ended.
func (s *System) lastTime() config.Cycles {
	t := s.engine.Now()
	for _, sh := range s.shards {
		if n := sh.engine.Now(); n > t {
			t = n
		}
	}
	return t
}

// --- thread-complex aggregation across shards ---

func (s *System) threadsDone() bool {
	for _, sh := range s.shards {
		if !sh.threads.Done() {
			return false
		}
	}
	return true
}

func (s *System) threadsOutstanding() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.threads.Outstanding()
	}
	return n
}

func (s *System) threadsIssued() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.threads.Issued()
	}
	return n
}

func (s *System) threadsCompleted() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.threads.Completed()
	}
	return n
}

func (s *System) finishTime() config.Cycles {
	var t config.Cycles
	for _, sh := range s.shards {
		if f := sh.threads.FinishTime(); f > t {
			t = f
		}
	}
	return t
}

func (s *System) eventsFired() uint64 {
	n := s.engine.Fired()
	for _, sh := range s.shards {
		n += sh.engine.Fired()
	}
	return n
}
