package system

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/cpu"
	"cmpcache/internal/l2"
	"cmpcache/internal/sim"
	"cmpcache/internal/stats"
	"cmpcache/internal/trace"
)

// shard is one independently runnable slice of the simulated chip: one
// L2 cache, the hardware threads that feed it, and a private event
// wheel. Everything a shard touches between bus-combine points is owned
// by the shard alone — its L2's front end (probe, MSHRs, write-back
// queue), its threads, its access pool and its fill-latency histogram.
//
// Anything global (the rings, the L3, memory, system counters, the
// observability attachments and the shared reuse tracker) is reached
// only through two deterministic channels drained at the round barrier:
//
//   - obs: an append-only log of observation hook calls (auditor,
//     latency collector, tracer, reuse tracker), replayed in canonical
//     (time, shard) order;
//   - posts: bus requests (demand starts and write-back pumps), which
//     arbitrate for the address ring in canonical (time, shard) order.
//
// Because every shard-side record carries its own timestamp and the
// merge orders are fixed, the drained effect is a pure function of the
// simulated workload (DESIGN.md §15).
type shard struct {
	sys    *System
	idx    int
	cache  l2Handle
	engine *sim.Engine

	threads    *cpu.Complex
	accessPool *sim.Pool[pendingAccess]

	// fillLatency is this shard's slice of the issue-to-completion
	// distribution; Results merges the per-shard histograms (merge order
	// cannot matter — histograms are additive).
	fillLatency stats.Histogram

	hResolve sim.Handler

	obs   []obsRec
	posts []busPost

	// obsNext / postNext are the merge cursors used by the barrier.
	obsNext  int
	postNext int
}

// obsKind discriminates replayed observation records.
type obsKind int8

const (
	obsStoreHit obsKind = iota
	obsWBReinstall
	obsWBCancelled
	obsDemandIssued
	obsDemandComplete
	obsVictim
)

// obsRec is one shard-context observation hook call, deferred to the
// round barrier. Records are appended in shard execution order, so each
// shard's log is nondecreasing in at; the barrier merges logs by
// (at, shard index, append order).
type obsRec struct {
	kind     obsKind
	at       config.Cycles
	key      uint64
	issued   config.Cycles   // obsDemandIssued: the access's issue time
	wbe      l2.WBEntry      // obsWBReinstall
	vState   coherence.State // obsVictim
	vAction  l2.VictimAction // obsVictim
	inL3     bool            // obsVictim
	switchOn bool            // obsVictim: retry-switch state at the hook
}

// postKind discriminates deferred bus requests.
type postKind int8

const (
	postDemand postKind = iota
	postPump
)

// busPost is one deferred address-ring request from shard context. The
// issuing L2 is the shard's own cache, so the record carries only the
// request itself; the barrier executes posts in (when, shard index,
// append order) — the canonical bus arbitration order.
type busPost struct {
	kind postKind
	when config.Cycles
	key  uint64
	txn  coherence.TxnKind
}

// newShardCore builds the shard shell common to both feeds: the access
// pool, the resolve handler and the engine. The caller attaches the
// thread complex and calls size().
func newShardCore(s *System, idx int) *shard {
	sh := &shard{sys: s, idx: idx, cache: s.l2s[idx], engine: sim.NewEngine()}
	sh.accessPool = sim.NewPool(func() *pendingAccess {
		p := &pendingAccess{}
		p.completeFn = func(at config.Cycles) { sh.finishAccess(p, at) }
		return p
	})
	sh.hResolve = func(d sim.EventData) { sh.resolve(d.Ptr.(*pendingAccess)) }
	return sh
}

// issueFn is the shard's cpu issue path, shared by both constructors.
func (sh *shard) issueFn() cpu.IssueFunc {
	return func(_ int, op trace.Op, key uint64, done func(config.Cycles)) {
		sh.access(op, key, done)
	}
}

// size pre-sizes the shard's event wheel and access pool from the
// shard's trace record count.
func (sh *shard) size(traceRecs int) {
	s := sh.sys
	perShard := s.cfg.ThreadsPerL2() * s.cfg.MaxOutstanding
	events := perShard*8 + 64
	if limit := 2*traceRecs + 64; events > limit {
		events = limit
	}
	sh.engine.Grow(events)
	inflight := perShard
	if inflight > traceRecs {
		inflight = traceRecs
	}
	sh.accessPool.Prime(inflight)
}

// newShard wires shard idx over streams (this shard's thread
// sub-slice).
func newShard(s *System, idx int, streams [][]trace.Record, traceRecs int) *shard {
	sh := newShardCore(s, idx)
	sh.threads = cpu.New(sh.engine, &s.cfg, streams, sh.issueFn())
	sh.size(traceRecs)
	return sh
}

// newShardStream wires shard idx over chunked per-thread streams
// (the bounded-memory replay path). Construction fails if any stream's
// first chunk cannot be decoded.
func newShardStream(s *System, idx int, streams []trace.Stream, traceRecs int) (*shard, error) {
	sh := newShardCore(s, idx)
	threads, err := cpu.NewStreams(sh.engine, &s.cfg, streams, sh.issueFn())
	if err != nil {
		return nil, err
	}
	sh.threads = threads
	sh.size(traceRecs)
	return sh, nil
}

// --- observation log appenders (shard context only) ---

func (sh *shard) logStoreHit(at config.Cycles, key uint64) {
	if sh.sys.auditor == nil {
		return
	}
	sh.obs = append(sh.obs, obsRec{kind: obsStoreHit, at: at, key: key})
}

func (sh *shard) logWBReinstall(at config.Cycles, e l2.WBEntry) {
	if sh.sys.auditor == nil {
		return
	}
	sh.obs = append(sh.obs, obsRec{kind: obsWBReinstall, at: at, key: e.Key, wbe: e})
}

func (sh *shard) logWBCancelled(at config.Cycles, key uint64) {
	if sh.sys.lat == nil {
		return
	}
	sh.obs = append(sh.obs, obsRec{kind: obsWBCancelled, at: at, key: key})
}

func (sh *shard) logDemandIssued(at config.Cycles, key uint64, issued config.Cycles) {
	if sh.sys.lat == nil {
		return
	}
	sh.obs = append(sh.obs, obsRec{kind: obsDemandIssued, at: at, key: key, issued: issued})
}

func (sh *shard) logDemandComplete(at config.Cycles, key uint64) {
	if sh.sys.lat == nil {
		return
	}
	sh.obs = append(sh.obs, obsRec{kind: obsDemandComplete, at: at, key: key})
}

// logVictim is appended unconditionally when the victim queued a write
// back (the reuse tracker scores every attempt, attachments or not);
// non-queued victims log only when an observer wants them.
func (sh *shard) logVictim(at config.Cycles, key uint64, st coherence.State, action l2.VictimAction, inL3, switchOn bool) {
	s := sh.sys
	if action != l2VictimQueued && s.tracer == nil && s.auditor == nil {
		return
	}
	sh.obs = append(sh.obs, obsRec{
		kind: obsVictim, at: at, key: key,
		vState: st, vAction: action, inL3: inL3, switchOn: switchOn,
	})
}

// postDemandTxn defers a demand transaction's address-ring arbitration
// to the round barrier. when is the shard-context cycle the request
// would have arbitrated; the barrier preserves it.
func (sh *shard) postDemandTxn(when config.Cycles, key uint64, kind coherence.TxnKind) {
	sh.posts = append(sh.posts, busPost{kind: postDemand, when: when, key: key, txn: kind})
}

// postPumpWB defers a write-back pump wake to the round barrier.
func (sh *shard) postPumpWB(when config.Cycles) {
	sh.posts = append(sh.posts, busPost{kind: postPump, when: when})
}

// --- the L2 front end (shard context) ---

// access is the shard's cpu issue path: one thread reference enters the
// hierarchy. The request crosses the core interface unit, reserves an
// L2 slice port and resolves against the tag array; hits complete at
// the Table 3 L2 latency, everything else becomes a bus transaction.
func (sh *shard) access(op trace.Op, key uint64, done func(config.Cycles)) {
	p := sh.accessPool.Get()
	p.sh = sh
	p.key = key
	p.issued = sh.engine.Now()
	p.done = done
	p.isStore = op == trace.Store
	p.count = true
	// The port is booked for the cycle the request reaches the slice
	// (issue + CoreToL2); booking it from the issue event keeps
	// reservations time-ordered while avoiding an intermediate event.
	cfg := &sh.sys.cfg
	start := sh.cache.ReservePort(key, sh.engine.Now()+cfg.CoreToL2)
	sh.engine.AtCall(start+cfg.L2Access, sh.hResolve, sim.EventData{Ptr: p})
}

// finishAccess completes a pending access: the issue-to-completion
// latency is recorded, the node returns to the pool and the thread's
// completion callback runs (which may synchronously issue new work that
// reuses the node). Called from shard context at delivery time, and
// from the serial phase when a bus commit wakes coalesced waiters — the
// coordinator keeps the shard clock in step for exactly that case.
func (sh *shard) finishAccess(p *pendingAccess, at config.Cycles) {
	sh.fillLatency.Observe(uint64(at - p.issued))
	done := p.done
	p.done = nil
	p.sh = nil
	sh.accessPool.Put(p)
	done(at)
}

// resolve classifies the probe outcome and dispatches. p.count is false
// on re-attempts after a structural stall so statistics stay truthful.
func (sh *shard) resolve(p *pendingAccess) {
	s := sh.sys
	now := sh.engine.Now()
	cache, key, isStore := sh.cache, p.key, p.isStore
	switch cache.Probe(key, isStore, p.count) {
	case probeHit:
		if isStore {
			sh.logStoreHit(now, key)
		}
		sh.finishAccess(p, now)

	case probeHitStoreUpgrade:
		// A store hit an Exclusive line: commit the silent E→M upgrade
		// here — through SetState and the store-hit observation, exactly
		// like the completeFill path — rather than as a Probe side
		// effect invisible to the hooks.
		cache.SetState(key, coherence.Modified)
		sh.logStoreHit(now, key)
		sh.finishAccess(p, now)

	case probeWBBufferHit:
		// The line was caught in the write-back queue before leaving the
		// chip: cancel the write back and put the line home.
		e, ok := cache.CancelWB(key)
		if !ok {
			// The in-flight write back combined in this same cycle;
			// treat as a plain miss on re-resolution.
			p.count = false
			sh.resolve(p)
			return
		}
		sh.logWBReinstall(now, e)
		if !e.InFlight {
			// Queued entries close here; an in-flight one closes at its
			// bus combine (the cancelled disposition).
			sh.logWBCancelled(now, key)
		}
		vKey, vState, evicted := cache.Reinstall(e)
		if evicted {
			sh.handleVictim(vKey, vState, now)
		}
		if isStore && e.State != coherence.Modified {
			// Stores to a reinstalled clean/shared line still need
			// ownership.
			p.count = false
			sh.resolve(p)
			return
		}
		sh.finishAccess(p, now)

	case probeHitNeedsUpgrade:
		if cache.AttachMSHR(key, true, p.completeFn) {
			cache.CountMSHRAttach()
			return // an upgrade or fill in flight will complete us
		}
		cache.AllocMSHR(key, coherence.Upgrade)
		cache.AttachMSHR(key, true, p.completeFn)
		sh.logDemandIssued(now, key, p.issued)
		sh.postDemandTxn(now, key, coherence.Upgrade)

	case probeMiss:
		if cache.AttachMSHR(key, isStore, p.completeFn) {
			cache.CountMSHRAttach()
			return
		}
		if cache.WBQueueFull() || cache.MSHRFull() {
			// Structural stall: the miss blocks until a slot opens
			// ("misses to the L2 cache will be blocked and will have to
			// wait for an open slot").
			p.count = false
			sh.engine.ScheduleCall(s.cfg.RetryBackoff, sh.hResolve, sim.EventData{Ptr: p})
			return
		}
		kind := coherence.Read
		if isStore {
			kind = coherence.RWITM
		}
		cache.CountMiss(key)
		cache.AllocMSHR(key, kind)
		cache.AttachMSHR(key, isStore, p.completeFn)
		sh.logDemandIssued(now, key, p.issued)
		sh.postDemandTxn(now, key, kind)
	}
}

// completeFill delivers the arrived data to the coalesced waiters and
// resolves any store-ownership follow-up. Ownership is serialized at
// the transaction's bus combine, not at data arrival: an RWITM's stores
// complete unconditionally even if a later transaction has already
// invalidated the line (the store is ordered before that transaction in
// coherence order). Restarting in that case would let two stable
// storers invalidate each other's in-flight fills forever.
func (sh *shard) completeFill(key uint64, kind coherence.TxnKind) {
	cache := sh.cache
	at := sh.engine.Now()
	sh.logDemandComplete(at, key)
	loads, stores := cache.TakeWaiters(key)
	for _, w := range loads {
		w(at)
	}
	if len(stores) == 0 {
		return
	}
	if kind == coherence.RWITM {
		for _, w := range stores {
			w(at)
		}
		return
	}
	// Stores coalesced onto a Read miss still need ownership, unless the
	// fill landed Exclusive (silent upgrade).
	switch cache.State(key) {
	case coherence.Modified:
		for _, w := range stores {
			w(at)
		}
	case coherence.Exclusive:
		cache.SetState(key, coherence.Modified)
		sh.logStoreHit(at, key)
		for _, w := range stores {
			w(at)
		}
	case coherence.Invalid:
		// The clean fill was invalidated before its data arrived; the
		// store claims the line outright. The RWITM completes its stores
		// at arrival unconditionally, so this cannot recurse.
		cache.AllocMSHR(key, coherence.RWITM)
		for _, w := range stores {
			cache.AttachMSHR(key, true, w)
		}
		sh.postDemandTxn(at, key, coherence.RWITM)
	default: // S, SL, T: claim ownership on the bus
		cache.AllocMSHR(key, coherence.Upgrade)
		for _, w := range stores {
			cache.AttachMSHR(key, true, w)
		}
		sh.postDemandTxn(at, key, coherence.Upgrade)
	}
}

// handleVictim is the shard-context half of the Section 2 write-back
// policy: the victim is classified against the shard's own L2 (and the
// frozen retry-switch and L3-membership oracles, both read-only between
// rounds), the observation hooks are logged for barrier replay, and a
// queued entry posts a pump wake. The global-context half lives in
// demand.go (handleVictimGlobal).
func (sh *shard) handleVictim(vKey uint64, vState coherence.State, now config.Cycles) {
	s := sh.sys
	// ActiveNow (not Active): the coordinator advanced the switch's
	// window at the round boundary; shard context must not mutate it.
	switchActive := s.policy.GatedBySwitch() && s.rswitch.ActiveNow()
	inL3 := s.l3.Contains(vKey) // oracle peek, used only for scoring
	action := sh.cache.ProcessVictim(vKey, vState, switchActive, inL3)
	sh.logVictim(now, vKey, vState, action, inL3, s.rswitch.ActiveNow())
	if action == l2VictimQueued {
		sh.postPumpWB(now)
	}
}

// replayObs applies one observation record to the attachments in
// canonical order at the round barrier. The auditor's clock is restamped
// per record so violations carry the hook's own cycle.
func (s *System) replayObs(sh *shard, rec *obsRec) {
	idx := sh.idx
	switch rec.kind {
	case obsStoreHit:
		if s.auditor != nil {
			s.auditor.AdvanceEvents(rec.at, 0)
			s.auditor.OnStoreHit(idx, rec.key)
		}
	case obsWBReinstall:
		if s.auditor != nil {
			s.auditor.AdvanceEvents(rec.at, 0)
			s.auditor.OnWBReinstall(idx, rec.wbe)
		}
	case obsWBCancelled:
		if s.lat != nil {
			s.lat.WBCancelled(idx, rec.key, rec.at)
		}
	case obsDemandIssued:
		if s.lat != nil {
			s.lat.DemandIssued(idx, rec.key, rec.issued, rec.at)
		}
	case obsDemandComplete:
		if s.lat != nil {
			s.lat.DemandComplete(idx, rec.key, rec.at)
		}
	case obsVictim:
		queued := rec.vAction == l2VictimQueued
		if s.tracer != nil {
			s.tracer.Victim(rec.at, idx, rec.key, rec.vState.String(), rec.vAction.String(), rec.inL3)
		}
		if s.auditor != nil {
			s.auditor.AdvanceEvents(rec.at, 0)
			s.auditor.OnVictim(idx, rec.key, rec.vState, queued)
		}
		if queued {
			if s.lat != nil {
				wbKind := coherence.CleanWB
				if rec.vState.Dirty() {
					wbKind = coherence.DirtyWB
				}
				s.lat.WBQueued(idx, rec.key, wbKind, rec.switchOn, rec.at)
			}
			s.reuse.recordAttempt(rec.key)
		}
	}
}

// executePost performs one deferred bus request at the round barrier,
// in canonical order. rec.when is the shard-context cycle the request
// was raised; address-ring arbitration sees exactly that time.
func (s *System) executePost(sh *shard, rec *busPost) {
	switch rec.kind {
	case postDemand:
		s.startDemand(sh.cache, rec.key, rec.txn, rec.when)
	case postPump:
		s.pumpWB(sh.idx, rec.when)
	}
}
