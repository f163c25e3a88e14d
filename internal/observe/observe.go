// Package observe is the simulator's one observation interface. The
// system calls every attached Observer with the same typed
// transaction-lifecycle events — demand misses from issue to delivery,
// victims, write backs from queue to disposition, L3 retirements — and
// drives their sampling windows from its event loop. The metrics
// probe (with its event trace), the invariant auditor and the latency
// collector all implement it, so a new observer needs no hook sites in
// the system.
//
// Observers are observation-only: they never schedule events or change
// simulation state, so attached and detached runs are bit-identical.
// A system without observers pays one length check per hook site.
//
// The package is a leaf: it imports only the component packages whose
// types the events carry, so observers need not import the system.
package observe

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
)

// Observer receives one run's events, in the order the system's
// engine fires them: by cycle, then L2 front ends in L2 order, then
// the bus.
type Observer interface {
	// Observe receives one event.
	Observe(e Event)
	// Tick closes every window that ends at or before now. The system
	// calls it before each event, with the event's cycle, so a window
	// closes after every event before its end has fired and before any
	// event at or after it.
	Tick(now config.Cycles)
}

// Kind names an event.
type Kind uint8

// The event kinds. Demand-transaction events come first, in lifecycle
// order.
const (
	// DemandIssued: a miss or an upgrade-needing hit allocated its MSHR.
	// Issued is the thread's issue cycle.
	DemandIssued Kind = iota
	// DemandStart: the transaction arbitrated for the address ring at
	// At; its combined response is due at CombineAt. SwitchOn is the
	// retry switch's state.
	DemandStart
	// DemandCombine: the combined response Out for a Txn transaction.
	DemandCombine
	// Fill: the requester installed the line in State.
	Fill
	// Upgrade: an ownership claim committed in State, updating sharers
	// in place when Update; Restarted when the requester's copy was
	// already gone and the claim reissued as an RWITM.
	Upgrade
	// DemandSourceReady: the supplier has the line ready to send.
	DemandSourceReady
	// DemandComplete: the data arrived (fills) or the claim committed
	// (upgrades).
	DemandComplete
	// StoreHit: a store hit a line it may write without a bus
	// transaction (silent E→M upgrade).
	StoreHit

	// Victim and write-back events, in lifecycle order.

	// Victim: a line in State left the tag array with Action; InL3 is
	// the L3's membership oracle, SwitchOn the retry switch's state.
	Victim
	// WBReinstall: a demand access caught WB in the write-back queue and
	// put the line back in the array.
	WBReinstall
	// WBDropped: a demand snoop killed a queued write back before it
	// reached the bus.
	WBDropped
	// WBIssued: the write back arbitrated for the address ring at At;
	// its combined response is due at CombineAt.
	WBIssued
	// TokenAcquired: the L3 granted an incoming-queue token.
	TokenAcquired
	// WBDisposition: the trace-level verdict Disp for a write back of
	// WB.Kind (cancelled, retry, squash-l3, squash-peer, snarf, to-l3,
	// snarf-fallback or snarf-retry).
	WBDisposition
	// WBCancelled: the write back combined after a demand access had
	// reclaimed its line. SnarfElected: the response chose a snarf
	// winner anyway.
	WBCancelled
	// WBRetry: the write back was retried and waits out a backoff.
	WBRetry
	// WBSquashed: WB was squashed, by the L3 when ByL3, else by peer
	// L2 Peer.
	WBSquashed
	// WBSnarfed: peer L2 Peer absorbed WB, displacing the Shared line
	// Displaced when Dropped.
	WBSnarfed
	// WBToL3: WB left for the L3 array.
	WBToL3
	// L3Retire: the L3 array write of a Txn write back retired; when
	// Castout, the dirty line Displaced drains to memory.
	L3Retire
	// TokenReleased: an L3 incoming-queue token returned.
	TokenReleased

	// Fired is the event-count cadence: N more events have fired, up to
	// cycle At.
	Fired

	// NumKinds is the number of event kinds.
	NumKinds
)

// Event is one observation. Kind says which fields are set; L2 is the
// slice the event concerns (requester, victim owner or writer).
type Event struct {
	Kind Kind
	At   config.Cycles
	L2   int
	Key  uint64

	Txn    coherence.TxnKind
	State  coherence.State
	Action l2.VictimAction
	Out    coherence.Outcome
	WB     l2.WBEntry
	Disp   string

	Issued    config.Cycles
	CombineAt config.Cycles
	Peer      int
	Displaced uint64
	N         uint64

	SwitchOn     bool
	InL3         bool
	Update       bool
	Restarted    bool
	SnarfElected bool
	ByL3         bool
	Dropped      bool
	Castout      bool
}
