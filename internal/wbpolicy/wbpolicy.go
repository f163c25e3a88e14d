// Package wbpolicy defines the write-back policy plug-in interface: the
// three decision points the paper's adaptive mechanisms occupy —
// clean-write-back abort (the WBHT squash), snarf flagging at the ring,
// and peer accept/reject — plus the observation hooks a policy trains
// on. The simulator core (internal/system, internal/l2) is policy-
// agnostic: it calls through these interfaces at exactly the sites the
// hard-coded mechanisms used to own, so new policies drop in without
// touching ring, L3 or protocol code.
//
// A policy splits into two halves:
//
//   - Agent: the per-L2 half. Its hooks run wherever that L2's events
//     run — its front end's tag probes or a bus combine — and touch
//     only its own state plus read-only configuration. One Agent
//     instance serves exactly one L2.
//
//   - Chip: the chip-wide half. Its hooks run only at bus combine
//     events, so a Chip may hold global state (tables indexed by all
//     L2s, sharing scores).
//
// Determinism obligations (DESIGN.md §16): hooks must not consult wall
// clocks, map iteration order, or randomness, and a detached policy
// (every hook a no-op) must not perturb the event sequence. The
// conformance suite in internal/system enforces both for every
// registered policy (observer bit-identity, auditor soak, zero-alloc
// observation).
package wbpolicy

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/core"
)

// Agent is the per-L2 half of a write-back policy.
type Agent interface {
	// AbortCleanWB is decision point 1: a clean line was evicted; return
	// true to suppress its copy-back to the L3 entirely (the paper's
	// WBHT squash). switchActive is the adaptive retry-rate switch state
	// for policies gated by it (Chip.GatedBySwitch); inL3 is the
	// simulator's oracle peek, passed solely so policies can score their
	// own prediction accuracy — it must not influence the decision
	// beyond bookkeeping.
	AbortCleanWB(key uint64, switchActive, inL3 bool) bool

	// FlagWriteBack is decision point 2: a write back is about to be
	// queued; return true to mark it snarfable on the bus so peers run
	// their accept logic when it combines.
	FlagWriteBack(key uint64) bool

	// SnoopsWB reports whether this L2 participates in write-back
	// snooping at all (squash detection and snarf volunteering). When
	// false the L2 answers every write-back snoop with RespNull without
	// a tag lookup.
	SnoopsWB() bool

	// AcceptOffer is decision point 3: a snarfable peer write back
	// passed the structural checks (no miss in flight for the line, a
	// replaceable way exists); return true to volunteer for it.
	AcceptOffer(key uint64) bool

	// ObserveLocalMiss: this L2 started a new demand bus transaction
	// for key (front-end context).
	ObserveLocalMiss(key uint64)

	// ObserveEviction: a valid line left this L2's tag array (any
	// state, before the write-back decision runs; front-end or bus
	// context).
	ObserveEviction(key uint64)

	// WBHT exposes the agent's Write Back History Table for statistics
	// and history-informed replacement, or nil.
	WBHT() *core.WBHT

	// SnarfTable exposes the agent's snarf reuse table for statistics,
	// or nil.
	SnarfTable() *core.SnarfTable
}

// Chip is the chip-wide half of a write-back policy. All hooks run at
// bus combine events only.
type Chip interface {
	// Agent returns the policy half owned by L2 idx.
	Agent(idx int) Agent

	// SnoopsWBRing reports whether write backs are snooped by peer L2s
	// at all; when false the system skips the peer loop at write-back
	// combines entirely.
	SnoopsWBRing() bool

	// GatedBySwitch reports whether AbortCleanWB should receive the
	// adaptive retry-rate switch state (true only for policies that
	// opt into Section 2.2's gating; others always receive false and
	// the switch is never advanced on their behalf).
	GatedBySwitch() bool

	// ObserveWriteBack: a write-back transaction for key combined on
	// the bus (fires for every WB, before snooping).
	ObserveWriteBack(key uint64)

	// ObserveCleanWBOutcome: a clean write back from L2 writer
	// combined; l3Has reports the L3 redundancy filter held the line
	// (the WBHT allocation point, Section 2 step 3).
	ObserveCleanWBOutcome(writer int, key uint64, l3Has bool)

	// ObserveDemandMiss: a demand transaction for key combined on the
	// bus (fires for every non-stale demand, before snooping).
	ObserveDemandMiss(key uint64)

	// ObserveDemandOutcome: the combined response for a demand
	// transaction is known (fires after the Snoop Collector, before
	// commit).
	ObserveDemandOutcome(requester int, key uint64, kind coherence.TxnKind, out coherence.Outcome)

	// UseUpdate decides, at a non-stale ownership claim's combine,
	// whether to update the known sharers in place instead of
	// invalidating them (the hybrid update/invalidate policy). The
	// decision itself may train the policy's state.
	UseUpdate(key uint64) bool

	// Stats returns policy-specific counters for Results, or nil when
	// the policy has none (the four paper mechanisms report through
	// their WBHT/snarf tables instead).
	Stats() *Stats
}

// Stats aggregates the counters of the two literature policies. A field
// is meaningful only for the policy that owns it; unused fields stay
// zero and are omitted from JSON.
type Stats struct {
	// reusedist: sketch training and gating.
	SketchEvictions uint64 `json:",omitempty"` // evictions recorded into the sketch
	SketchSamples   uint64 `json:",omitempty"` // reuse-distance samples folded into EWMAs
	PredictConsults uint64 `json:",omitempty"` // clean-WB gates with a trained entry
	PredictCold     uint64 `json:",omitempty"` // clean-WB gates without training (copy back)
	PredictAborts   uint64 `json:",omitempty"` // clean copy-backs suppressed
	AbortsLineInL3  uint64 `json:",omitempty"` // suppressed while the L3 held the line (free)

	// hybridui: sharing scores and upgrade routing.
	ScoredReads        uint64 `json:",omitempty"` // peer-sourced reads that bumped a score
	UpdatePushes       uint64 `json:",omitempty"` // upgrades routed to the update path
	InvalidateUpgrades uint64 `json:",omitempty"` // upgrades routed to invalidation
}

// New builds the write-back policy chip for cfg's mechanism. cfg must
// already be validated; the returned Chip owns one Agent per L2.
func New(cfg *config.Config) Chip {
	switch cfg.Mechanism {
	case config.ReuseDist:
		return newReuseChip(cfg)
	case config.HybridUI:
		return newHybridChip(cfg)
	default:
		return newPaperChip(cfg)
	}
}
