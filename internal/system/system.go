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
// Every event runs on one engine, inline on the caller's goroutine. The
// engine orders events by (cycle, lane, scheduling order): lane i holds
// L2 slice i's front end (threads, tag probes, structural-stall retries,
// fill delivery) and the last lane holds the bus — combined responses
// and everything behind them (ring, L3, memory). So at equal cycles the
// front ends run in L2 order, before the bus serializes the cycle's
// transactions (DESIGN.md §15).
//
// NewStream is the only constructor (New wraps an in-memory trace as a
// source). Observers (internal/observe) attach there and receive every
// transaction-lifecycle event; without them each hook site costs one
// length check.
package system

import (
	"context"
	"fmt"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/core"
	"cmpcache/internal/l2"
	"cmpcache/internal/l3"
	"cmpcache/internal/mem"
	"cmpcache/internal/observe"
	"cmpcache/internal/ring"
	"cmpcache/internal/sim"
	"cmpcache/internal/stats"
	"cmpcache/internal/trace"
	"cmpcache/internal/wbpolicy"
)

// System is one fully wired simulated chip.
type System struct {
	cfg    config.Config
	engine *sim.Engine // the bus lane is the engine's own; shards[i] uses lane i

	shards []*shard // one per L2 slice; shards[i] owns l2s[i]

	l2s       []*l2.Cache
	l3        *l3.Cache
	mem       *mem.Controller
	ring      *ring.Ring
	collector *coherence.Collector
	rswitch   *core.RetrySwitch

	// policy is the configured write-back policy's chip-wide half; its
	// per-L2 agents live inside the l2.Caches. All chip hooks run at
	// bus combine events.
	policy wbpolicy.Chip

	// fillLatency is the issue-to-completion latency distribution.
	fillLatency stats.Histogram

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

	// obs are the attached observers (nil in normal runs — hook sites
	// pay one length check each).
	obs []observe.Observer

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
// and the bound event handlers. NewStream attaches the shards.
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

// New builds the system over an in-memory trace: it validates tr and
// runs NewStream over trace.NewMemSource(tr), whose threads each yield
// their whole record slice as one chunk.
func New(cfg config.Config, tr *trace.Trace, obs ...observe.Observer) (*System, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return NewStream(cfg, trace.NewMemSource(tr), obs...)
}

// NewStream validates cfg, builds all components over src and attaches
// obs. The thread feeds pull chunked per-thread iterators
// (trace.Source.Stream), so replay memory is bounded by the source's
// chunk size rather than the trace length; the feed only changes where
// records are buffered, never when they issue. Run() executes the
// workload to completion. Observers are observation-only: attaching
// any set of them leaves the simulation bit-identical.
func NewStream(cfg config.Config, src trace.Source, obs ...observe.Observer) (*System, error) {
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
	streams := make([]trace.Stream, cfg.Threads())
	for i := 0; i < cfg.NumL2(); i++ {
		var recs int64
		for tid := i * tpl; tid < (i+1)*tpl; tid++ {
			if tid < src.Threads() && src.ThreadRecords(tid) > 0 {
				streams[tid] = src.Stream(tid)
				recs += src.ThreadRecords(tid)
			}
		}
		sh, err := newShard(s, i, streams[i*tpl:(i+1)*tpl], clamp(recs))
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}

	// Pre-size the event queue from the workload: its high-water mark
	// tracks in-flight accesses and bus transactions, bounded by what
	// the trace can ever put in flight at once.
	events := cfg.Threads()*cfg.MaxOutstanding*12 + 64
	if limit := 4*clamp(src.Records()) + 64; events > limit {
		events = limit
	}
	s.engine.Grow(events)
	s.attach(obs)
	return s, nil
}

// Config returns the system's configuration.
func (s *System) Config() *config.Config { return &s.cfg }

// Run executes the workload to completion and returns the results. It
// panics if the engine drains while threads still have work, which
// would indicate a lost completion (a simulator bug, not a workload
// property).
func (s *System) Run() *Results {
	if err := s.run(context.Background()); err != nil {
		panic(err) // unreachable: the background context never cancels
	}
	return s.finish()
}

// cancelCheckEvery is how many events RunContext lets pass between
// context polls (it also polls once on entry). Polling happens outside
// the event stream — nothing is scheduled, Fired does not move, the
// simulation is bit-identical to Run — so the granularity only bounds
// cancellation latency, while keeping the poll's lock off the
// per-event path.
const cancelCheckEvery = 8192

// RunContext is Run with cooperative cancellation: it executes the
// workload to completion unless ctx is cancelled first, in which case
// it abandons the remaining events and returns ctx's error. A completed
// run is bit-identical to Run() — the context poll observes the engine
// between events and never perturbs it.
func (s *System) RunContext(ctx context.Context) (*Results, error) {
	if err := s.run(ctx); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// run starts the threads and fires events until the engine drains or
// ctx is cancelled. Before each event at cycle t, the observers close
// every window ending at or before t — so a window's sample sees
// exactly the state after all earlier events — and only then does the
// retry switch roll its sampling window forward to t (a sample reads
// the switch as the closed window left it).
func (s *System) run(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.threads.Start()
	}
	budget := 0
	for {
		t := s.engine.NextTime()
		if t == sim.Forever {
			return nil
		}
		for _, o := range s.obs {
			o.Tick(t)
		}
		s.rswitch.AdvanceTo(t)
		if len(s.obs) > 0 {
			s.emit(observe.Event{Kind: observe.Fired, At: t, N: 1})
		}
		s.engine.Step()
		if budget++; budget == cancelCheckEvery {
			budget = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}

// finish asserts the drained engine left no thread mid-access and
// gathers results (which also finishes the observers).
func (s *System) finish() *Results {
	if !s.threadsDone() {
		panic(fmt.Sprintf("system: engine drained with %d accesses outstanding", s.threadsOutstanding()))
	}
	return s.results()
}

// SetWorkers does nothing: every simulation runs inline on one engine.
//
// Deprecated: kept only for the perfbench/ module, its one caller; it
// goes when that benchmark stops calling it.
func (s *System) SetWorkers(int) {}

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
