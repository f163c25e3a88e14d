package system

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/cpu"
	"cmpcache/internal/observe"
	"cmpcache/internal/sim"
	"cmpcache/internal/trace"
)

// shard is the front end of one L2 slice: the L2 cache, the hardware
// threads that feed it, and its access pool. Its events (thread issue,
// tag probes, structural-stall retries, fill delivery) run on the
// system engine's lane idx, so at equal cycles they fire in L2 order and
// before the bus lane's combines (DESIGN.md §15). Bus requests and
// observer events go straight to the System.
type shard struct {
	sys   *System
	idx   int
	cache l2Handle
	lane  sim.Lane

	threads    *cpu.Complex
	accessPool *sim.Pool[pendingAccess]

	hResolve sim.Handler
}

// newShard wires shard idx over its threads' chunked streams (nil
// entries are idle threads) and primes its access pool from the shard's
// trace record count. Construction fails if any stream's first chunk
// cannot be decoded.
func newShard(s *System, idx int, streams []trace.Stream, traceRecs int) (*shard, error) {
	sh := &shard{sys: s, idx: idx, cache: s.l2s[idx], lane: s.engine.Lane(idx)}
	sh.accessPool = sim.NewPool(func() *pendingAccess {
		p := &pendingAccess{}
		p.completeFn = func(at config.Cycles) { sh.finishAccess(p, at) }
		return p
	})
	sh.hResolve = func(d sim.EventData) { sh.resolve(d.Ptr.(*pendingAccess)) }
	threads, err := cpu.NewStreams(sh.lane, &s.cfg, streams,
		func(_ int, op trace.Op, key uint64, done func(config.Cycles)) {
			sh.access(op, key, done)
		})
	if err != nil {
		return nil, err
	}
	sh.threads = threads

	inflight := s.cfg.ThreadsPerL2() * s.cfg.MaxOutstanding
	if inflight > traceRecs {
		inflight = traceRecs
	}
	sh.accessPool.Prime(inflight)
	return sh, nil
}

// emit hands e, stamped with this shard's L2, to the observers.
func (sh *shard) emit(e observe.Event) {
	e.L2 = sh.idx
	sh.sys.emit(e)
}

// --- the L2 front end ---

// access is the shard's cpu issue path: one thread reference enters the
// hierarchy. The request crosses the core interface unit, reserves an
// L2 slice port and resolves against the tag array; hits complete at
// the Table 3 L2 latency, everything else becomes a bus transaction.
func (sh *shard) access(op trace.Op, key uint64, done func(config.Cycles)) {
	p := sh.accessPool.Get()
	p.key = key
	p.issued = sh.lane.Now()
	p.done = done
	p.isStore = op == trace.Store
	p.count = true
	// The port is booked for the cycle the request reaches the slice
	// (issue + CoreToL2); booking it from the issue event keeps
	// reservations time-ordered while avoiding an intermediate event.
	cfg := &sh.sys.cfg
	start := sh.cache.ReservePort(key, sh.lane.Now()+cfg.CoreToL2)
	sh.lane.AtCall(start+cfg.L2Access, sh.hResolve, sim.EventData{Ptr: p})
}

// finishAccess completes a pending access: the issue-to-completion
// latency is recorded, the node returns to the pool and the thread's
// completion callback runs (which may synchronously issue new work that
// reuses the node). Called at delivery time from this shard's lane, or
// from a bus commit that wakes coalesced waiters.
func (sh *shard) finishAccess(p *pendingAccess, at config.Cycles) {
	sh.sys.fillLatency.Observe(uint64(at - p.issued))
	done := p.done
	p.done = nil
	sh.accessPool.Put(p)
	done(at)
}

// resolve classifies the probe outcome and dispatches. p.count is false
// on re-attempts after a structural stall so statistics stay truthful.
func (sh *shard) resolve(p *pendingAccess) {
	s := sh.sys
	now := sh.lane.Now()
	cache, key, isStore := sh.cache, p.key, p.isStore
	switch cache.Probe(key, isStore, p.count) {
	case probeHit:
		if isStore && len(s.obs) > 0 {
			sh.emit(observe.Event{Kind: observe.StoreHit, At: now, Key: key})
		}
		sh.finishAccess(p, now)

	case probeHitStoreUpgrade:
		// A store hit an Exclusive line: commit the silent E→M upgrade
		// here — through SetState and the store-hit observation, exactly
		// like the completeFill path — rather than as a Probe side
		// effect invisible to the hooks.
		cache.SetState(key, coherence.Modified)
		if len(s.obs) > 0 {
			sh.emit(observe.Event{Kind: observe.StoreHit, At: now, Key: key})
		}
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
		if len(s.obs) > 0 {
			// A queued entry closes here; an in-flight one closes at its
			// bus combine (the cancelled disposition).
			sh.emit(observe.Event{Kind: observe.WBReinstall, At: now, Key: key, WB: e})
		}
		vKey, vState, evicted := cache.Reinstall(e)
		if evicted {
			s.handleVictim(cache, vKey, vState, now)
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
		if len(s.obs) > 0 {
			sh.emit(observe.Event{Kind: observe.DemandIssued, At: now, Key: key, Issued: p.issued})
		}
		s.startDemand(cache, key, coherence.Upgrade, now)

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
			sh.lane.ScheduleCall(s.cfg.RetryBackoff, sh.hResolve, sim.EventData{Ptr: p})
			return
		}
		kind := coherence.Read
		if isStore {
			kind = coherence.RWITM
		}
		cache.CountMiss(key)
		cache.AllocMSHR(key, kind)
		cache.AttachMSHR(key, isStore, p.completeFn)
		if len(s.obs) > 0 {
			sh.emit(observe.Event{Kind: observe.DemandIssued, At: now, Key: key, Issued: p.issued})
		}
		s.startDemand(cache, key, kind, now)
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
	cache, obs := sh.cache, len(sh.sys.obs) > 0
	at := sh.lane.Now()
	if obs {
		sh.emit(observe.Event{Kind: observe.DemandComplete, At: at, Key: key})
	}
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
		if obs {
			sh.emit(observe.Event{Kind: observe.StoreHit, At: at, Key: key})
		}
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
		sh.sys.startDemand(cache, key, coherence.RWITM, at)
	default: // S, SL, T: claim ownership on the bus
		cache.AllocMSHR(key, coherence.Upgrade)
		for _, w := range stores {
			cache.AttachMSHR(key, true, w)
		}
		sh.sys.startDemand(cache, key, coherence.Upgrade, at)
	}
}
