package wbpolicy

import (
	"cmpcache/internal/cache"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/core"
)

// hybridChip implements the hybrid update/invalidate coherence variant
// (after arXiv 1502.00101): a chip-wide score table counts, per line
// tag, how many peer-sourced reads combined since the last write. When
// a store's ownership claim (Upgrade) combines on a line whose score
// has reached the threshold — a producer-consumer line whose sharers
// will re-read it anyway — the writer updates the known sharers in
// place instead of invalidating them: sharers stay Shared, the writer
// becomes Tagged (dirty, shared, supplier) and pushes the new data
// across the data ring, and the consumers' next reads hit locally
// instead of re-missing on the bus. Lines below the threshold — and
// every RWITM — invalidate as usual, so migratory data keeps the
// invalidate protocol's single-copy behavior.
//
// All score state lives on the chip half and is touched only at bus
// combine events, so the policy is deterministic. Scores
// saturate at 255 and decay by halving on each update push (retaining
// producer-consumer history) or reset on an invalidation (the sharer
// set is gone).
type hybridChip struct {
	score     *cache.Cache // score lives in Line.Flags
	threshold uint8
	agents    []hybridAgent
	stats     Stats
}

func newHybridChip(cfg *config.Config) *hybridChip {
	thr := cfg.HybridUI.UpdateThreshold
	if thr < 1 {
		thr = 1
	}
	if thr > 255 {
		thr = 255
	}
	return &hybridChip{
		score:     cache.New(cfg.HybridUI.Entries/cfg.HybridUI.Assoc, cfg.HybridUI.Assoc),
		threshold: uint8(thr),
		agents:    make([]hybridAgent, cfg.NumL2()),
	}
}

func (p *hybridChip) Agent(idx int) Agent                     { return &p.agents[idx] }
func (p *hybridChip) SnoopsWBRing() bool                      { return false }
func (p *hybridChip) GatedBySwitch() bool                     { return false }
func (p *hybridChip) ObserveWriteBack(uint64)                 {}
func (p *hybridChip) ObserveCleanWBOutcome(int, uint64, bool) {}
func (p *hybridChip) ObserveDemandMiss(uint64)                {}
func (p *hybridChip) Stats() *Stats                           { return &p.stats }

// ObserveDemandOutcome trains the sharing score: a read that found the
// line on chip (a peer supplied it or holds it shared) is one consumer
// touch; an RWITM is an invalidating write and clears the line's score.
func (p *hybridChip) ObserveDemandOutcome(_ int, key uint64, kind coherence.TxnKind, out coherence.Outcome) {
	switch kind {
	case coherence.Read:
		if !out.SharedElsewhere && !out.DirtySource {
			return
		}
		p.stats.ScoredReads++
		if l := p.score.LookupTouch(key); l != nil {
			if l.Flags < 255 {
				l.Flags++
			}
			return
		}
		p.score.Insert(key, 0, 1, true)
	case coherence.RWITM:
		if l := p.score.Lookup(key); l != nil {
			l.Flags = 0
		}
	}
}

// UseUpdate routes a non-stale ownership claim: update the sharers when
// the line's consumer score has reached the threshold (halving the
// score so sustained producer-consumer lines stay in update mode),
// otherwise invalidate (resetting the score — the sharer set this
// score described no longer exists).
func (p *hybridChip) UseUpdate(key uint64) bool {
	if l := p.score.LookupTouch(key); l != nil {
		if l.Flags >= p.threshold {
			l.Flags >>= 1
			p.stats.UpdatePushes++
			return true
		}
		l.Flags = 0
	}
	p.stats.InvalidateUpgrades++
	return false
}

// hybridAgent: the per-L2 half is entirely passive — the policy changes
// only how upgrades commit, which is chip-level.
type hybridAgent struct{}

func (hybridAgent) AbortCleanWB(uint64, bool, bool) bool { return false }
func (hybridAgent) FlagWriteBack(uint64) bool            { return false }
func (hybridAgent) SnoopsWB() bool                       { return false }
func (hybridAgent) AcceptOffer(uint64) bool              { return true }
func (hybridAgent) ObserveLocalMiss(uint64)              {}
func (hybridAgent) ObserveEviction(uint64)               {}
func (hybridAgent) WBHT() *core.WBHT                     { return nil }
func (hybridAgent) SnarfTable() *core.SnarfTable         { return nil }
