package system

import (
	"context"

	"cmpcache/internal/config"
	"cmpcache/internal/sim"
)

// This file is the round coordinator (DESIGN.md §15).
//
// The simulated chip is partitioned by L2 slice into shards, each with
// its own event wheel, plus one global wheel holding every bus-combine
// event and everything behind it (ring, L3, memory). Execution proceeds
// in rounds:
//
//  1. Boundary tick — close observability windows up to the next event
//     time and advance the retry switch's sampling window. After this,
//     shard context may only *read* the switch (ActiveNow).
//  2. Shard phase — every shard runs its wheel up to a horizon H, one
//     after another. H is chosen so no shard event can causally precede
//     any global event: H never exceeds the next global event time,
//     never reaches an observability window boundary, and never
//     exceeds the earliest cycle a freshly posted bus request could
//     combine (min over shards of next-event time, floored by the
//     address ring's free cycle, plus the address phase).
//  3. Barrier — replay the shards' observation logs into the
//     attachments in canonical (time, shard) order, then execute the
//     deferred bus posts in canonical (time, shard) order, arbitrating
//     each at its own recorded cycle.
//  4. Serial phase — fire global events in time order while they
//     precede every pending shard event and the next window boundary.
//     Before each, all shard clocks advance to the event's cycle so
//     waiter wake-ups that re-enter shard code observe the right Now.
//
// Every merge order above is a pure function of simulated time and
// shard index, so the complete execution — Results, probe series, audit
// verdicts, latency reports — is fixed by the workload alone. The round
// structure fixes the event order the experiment goldens were recorded
// under, which is why it stays even though every phase runs inline.

// ShardingStats records the round coordinator's execution shape for a
// run: how many rounds it took, how many ran a shard phase, and which
// constraint limited each shard-phase horizon.
//
// The counters are pure functions of simulated time, but they are NOT
// invariant under observation attachments — the metrics probe and
// windowed latency collector schedule their own wake-ups, adding
// rounds — so the whole record stays out of Results JSON
// (Results.Sharding is json:"-", preserving the observation-only
// result-byte contract) and is read in process by the benchmarks.
type ShardingStats struct {
	// Rounds counts coordinator iterations (boundary tick → horizon
	// choice → optional shard phase → serial phase).
	Rounds uint64
	// ParallelRounds counts rounds whose horizon admitted at least one
	// shard event, i.e. rounds that ran a shard phase and a barrier.
	ParallelRounds uint64
	// Horizon-limiter attribution: which constraint bounded the horizon
	// on each shard-phase round. NextGlobal: the next global (bus/ring/
	// L3/memory) event time tg. RingCredit: the earliest cycle a freshly
	// posted bus request could combine (shard lookahead floored by the
	// address ring's free cycle, plus the address phase). Window: an
	// observability window boundary (metrics probe or windowed latency
	// collector). Sums to ParallelRounds.
	HorizonNextGlobal uint64
	HorizonRingCredit uint64
	HorizonWindow     uint64
}

// BarrierWaitTotalNs always returns 0: shards run inline, so no shard
// ever waits at the barrier.
//
// Deprecated: kept only for the perfbench/ module, its one caller; it
// goes when that benchmark stops reading it.
func (p *ShardingStats) BarrierWaitTotalNs() int64 { return 0 }

// horizon-limiter tags for the attribution counters above.
type horizonLimit uint8

const (
	limNextGlobal horizonLimit = iota
	limRingCredit
	limWindow
)

// SetWorkers does nothing: the round coordinator always runs shards
// inline.
//
// Deprecated: kept only for the perfbench/ module, its one caller; it
// goes when that benchmark stops calling it.
func (s *System) SetWorkers(int) {}

// runRounds executes the workload to completion (or ctx cancellation)
// using the round structure above. ctx is polled once on entry and
// then once every cancelCheckEvery rounds plus serial-phase events.
func (s *System) runRounds(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.threads.Start()
	}

	windowed := s.lat != nil && s.lat.Windowed()
	budget := 0
	for {
		minLocal := s.minShardTime()
		tg := s.engine.NextTime()
		tNext := minLocal
		if tg < tNext {
			tNext = tg
		}
		if tNext == sim.Forever {
			break // every wheel is empty: the run is complete
		}
		s.pstats.Rounds++

		// (1) Boundary tick: windows ending at or before the next event
		// close now, seeing exactly the state after all earlier events.
		if s.probe != nil {
			s.probe.Tick(tNext)
		}
		if windowed {
			s.lat.Tick(tNext)
		}
		s.rswitch.AdvanceTo(tNext)
		boundary := sim.Forever
		if s.probe != nil {
			boundary = s.probe.NextBoundary()
		}
		if windowed {
			if b := s.lat.NextBoundary(); b < boundary {
				boundary = b
			}
		}

		// (2) Horizon: the largest cycle shards may run to freely.
		h := tg
		limiter := limNextGlobal
		if minLocal != sim.Forever {
			look := minLocal
			if nf := s.ring.AddressNextFree(); nf > look {
				look = nf
			}
			look += s.cfg.AddressPhase
			if look < h {
				h = look
				limiter = limRingCredit
			}
			if boundary-1 < h {
				h = boundary - 1
				limiter = limWindow
			}
			if minLocal <= h {
				s.pstats.ParallelRounds++
				switch limiter {
				case limRingCredit:
					s.pstats.HorizonRingCredit++
				case limWindow:
					s.pstats.HorizonWindow++
				default:
					s.pstats.HorizonNextGlobal++
				}
				for _, sh := range s.shards {
					if sh.engine.NextTime() <= h {
						sh.engine.RunUntil(h)
					}
				}
				s.drainBarrier(h)
			}
		}

		// (4) Serial phase: global events that precede every pending
		// shard event and the next window boundary.
		for {
			g := s.engine.NextTime()
			if g >= boundary || g >= s.minShardTime() {
				break
			}
			if s.auditor != nil {
				s.auditor.AdvanceEvents(g, 1)
			}
			for _, sh := range s.shards {
				sh.engine.AdvanceTo(g)
			}
			s.engine.Step()
			budget++
		}

		if budget++; budget >= cancelCheckEvery {
			budget = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// minShardTime returns the earliest pending shard event time.
func (s *System) minShardTime() config.Cycles {
	m := sim.Forever
	for _, sh := range s.shards {
		if t := sh.engine.NextTime(); t < m {
			m = t
		}
	}
	return m
}

// drainBarrier is the rendezvous after a shard phase: observation
// logs replay in (time, shard) order, the auditor's event clock catches
// up to the horizon, and the deferred bus posts arbitrate in (time,
// shard) order at their recorded cycles.
func (s *System) drainBarrier(h config.Cycles) {
	var fired uint64
	for {
		var best *shard
		bestAt := sim.Forever
		for _, sh := range s.shards {
			if sh.obsNext < len(sh.obs) && sh.obs[sh.obsNext].at < bestAt {
				best, bestAt = sh, sh.obs[sh.obsNext].at
			}
		}
		if best == nil {
			break
		}
		s.replayObs(best, &best.obs[best.obsNext])
		best.obsNext++
	}
	if s.auditor != nil {
		for _, sh := range s.shards {
			fired += sh.engine.Fired()
		}
		s.auditor.AdvanceEvents(h, fired-s.auditedFired)
		s.auditedFired = fired
	}
	for {
		var best *shard
		bestAt := sim.Forever
		for _, sh := range s.shards {
			if sh.postNext < len(sh.posts) && sh.posts[sh.postNext].when < bestAt {
				best, bestAt = sh, sh.posts[sh.postNext].when
			}
		}
		if best == nil {
			break
		}
		s.executePost(best, &best.posts[best.postNext])
		best.postNext++
	}
	for _, sh := range s.shards {
		sh.obs, sh.obsNext = sh.obs[:0], 0
		sh.posts, sh.postNext = sh.posts[:0], 0
	}
}
