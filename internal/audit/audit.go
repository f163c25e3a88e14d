// Package audit is a shadow invariant checker for the simulated cache
// hierarchy. An Auditor is an observe.Observer like the metrics probe:
// the system's event-count cadence (observe.Fired) drives periodic
// whole-hierarchy sweeps, and the events raised at each protocol commit
// point keep incremental ledgers. Attaching an auditor never perturbs
// the event sequence — every read it performs is a non-perturbing peek,
// which a bit-identity test in internal/system pins.
//
// Checked invariants (DESIGN.md §12 gives the paper justification):
//
//   - Single writer: at most one Modified holder per line across the
//     L2s; an Exclusive or Modified holder is the sole valid copy; at
//     most one SharedLast supplier among sharers, and never alongside a
//     dirty holder.
//   - Dirty-line conservation: every line that ever went Modified is
//     accounted for in some L2 array, a live write-back queue entry, an
//     in-flight transfer to the L3, the L3 array (dirty), or memory —
//     no silent loss, ever.
//   - WBHT/L3 squash soundness: a write back squashed by the L3
//     redundancy filter really had its tag valid in the L3 at squash
//     time.
//   - Resource-credit conservation: L3 incoming-queue tokens, MSHRs and
//     write-back queue entries are leak-free; at end-of-run drain every
//     ledger reads zero and the snarf arbitration counters cross-check.
//
// With Config.Differential set, the auditor additionally maintains a
// naive map-based reference coherence model (see RefModel) fed by the
// same hooks, and compares complete end states at drain.
package audit

import (
	"fmt"
	"sort"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/l3"
	"cmpcache/internal/observe"
)

// Config parameterizes an Auditor.
type Config struct {
	// SweepEvery is the number of engine events between full-hierarchy
	// sweeps (single-writer and conservation checks). 0 selects 4096.
	// Per-event hook checks run regardless.
	SweepEvery uint64
	// MaxViolations bounds the retained violation list (deduplicated by
	// kind+key); further findings only bump Truncated. 0 selects 64.
	MaxViolations int
	// Differential enables the reference coherence model and the
	// end-of-run differential state comparison.
	Differential bool
}

// Violation is one invariant failure.
type Violation struct {
	Cycle config.Cycles
	Kind  string // stable machine-readable class, e.g. "dirty-lost"
	Key   uint64 // line key the violation concerns (0 when not line-specific)
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d [%s] key %#x: %s", int64(v.Cycle), v.Kind, v.Key, v.Msg)
}

// View is the read-only window into a system the auditor checks. Every
// function and method reached through it must be observation-only.
type View struct {
	Cfg        *config.Config
	L2s        []*l2.Cache
	L3         *l3.Cache
	WBInFlight func(idx int) bool // is L2 idx's write-back bus slot busy
	Counters   func() Counters
}

// Counters are the system-level snarf counters the drain cross-checks.
type Counters struct {
	SnarfArbitrated uint64 // collector arbitrations that elected a winner
	WBSnarfed       uint64 // snarfs that installed
	SnarfFallbacks  uint64 // elected winners that could not install
}

type violationKey struct {
	kind string
	key  uint64
}

// Auditor is the shadow checker and an observe.Observer. Create with
// New, attach by passing it to the system's constructor, inspect with
// Violations/Ok/Summary after Run.
type Auditor struct {
	cfg  Config
	view View
	now  config.Cycles

	events uint64

	// Dirty-line conservation ledgers.
	dirty      map[uint64]struct{} // ever-Modified lines needing accounting
	memValid   map[uint64]struct{} // latest dirty data drained to memory
	l3Stale    map[uint64]struct{} // L3 copy predates a newer L2 dirty copy
	inflightL3 map[uint64]int      // write backs sent toward the L3, not yet retired
	dirtyInFl  map[uint64]int      // dirty subset of inflightL3

	// Resource credits.
	tokens int // L3 incoming-queue tokens believed held

	// Snarf accounting cross-check.
	cancelledSnarf uint64 // arbitration wins voided by a cancelled entry

	// Sweep scratch, reused allocation-free across sweeps.
	holders map[uint64]holderMask
	queued  map[uint64]struct{} // live dirty WB queue entries this sweep
	qbuf    []l2.WBEntry

	model *RefModel

	seen       map[violationKey]struct{}
	violations []Violation
	truncated  int

	// Statistics (not violations).
	sweeps             uint64
	supplierlessSweeps uint64 // sweeps observing an S-only sharer set
}

// holderMask packs per-L2 holder bits for one key during a sweep: one
// bit per L2, which config.Validate's config.MaxL2s = 64 limit makes
// enough (the paper's chip has 4).
type holderMask struct {
	valid uint64
	dirty uint64 // M or T
	sole  uint64 // E or M
	sl    uint64
}

// New returns an unattached Auditor.
func New(cfg Config) *Auditor {
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = 4096
	}
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = 64
	}
	a := &Auditor{
		cfg:        cfg,
		dirty:      make(map[uint64]struct{}),
		memValid:   make(map[uint64]struct{}),
		l3Stale:    make(map[uint64]struct{}),
		inflightL3: make(map[uint64]int),
		dirtyInFl:  make(map[uint64]int),
		holders:    make(map[uint64]holderMask),
		queued:     make(map[uint64]struct{}),
		seen:       make(map[violationKey]struct{}),
	}
	return a
}

// Bind attaches the auditor to a system view. The system calls it when
// the auditor attaches, before the first event.
func (a *Auditor) Bind(v View) {
	a.view = v
	if a.cfg.Differential {
		a.model = NewRefModel(len(v.L2s), a.report)
	}
}

// Tick does nothing: the auditor has no sampling windows.
func (a *Auditor) Tick(config.Cycles) {}

// report records one violation, deduplicated by (kind, key).
func (a *Auditor) report(kind string, key uint64, format string, args ...any) {
	vk := violationKey{kind, key}
	if _, dup := a.seen[vk]; dup {
		return
	}
	a.seen[vk] = struct{}{}
	if len(a.violations) >= a.cfg.MaxViolations {
		a.truncated++
		return
	}
	a.violations = append(a.violations, Violation{
		Cycle: a.now, Kind: kind, Key: key, Msg: fmt.Sprintf(format, args...),
	})
}

// --- Events (all observation-only) ---

// Observe applies one event. The audit clock moves to the event's cycle
// first, so a violation carries the cycle of the event that revealed
// it. Fired events credit the sweep cadence: full sweeps run every
// SweepEvery events, between events, when every protocol invariant must
// hold. The protocol commit points keep the incremental ledgers (and
// the reference model) in step.
func (a *Auditor) Observe(e observe.Event) {
	a.now = e.At
	switch e.Kind {
	case observe.Fired:
		sweepsBefore := a.events / a.cfg.SweepEvery
		a.events += e.N
		for sweeps := a.events/a.cfg.SweepEvery - sweepsBefore; sweeps > 0; sweeps-- {
			a.sweep()
		}
	case observe.StoreHit:
		// A store completed locally via a silent E→M upgrade.
		a.markDirty(e.Key)
		if a.model != nil {
			a.model.StoreHit(e.L2, e.Key)
		}
	case observe.Upgrade:
		// A restarted claim found its copy invalidated and reissued as
		// an RWITM; an update-mode claim (hybrid update/invalidate)
		// left sharers with demoted copies.
		if !e.Restarted {
			a.markDirty(e.Key)
		}
		switch {
		case a.model == nil:
		case e.Update:
			a.model.Update(e.L2, e.Key, e.State)
		default:
			a.model.Upgrade(e.L2, e.Key, e.Restarted)
		}
	case observe.Fill:
		if e.State.Dirty() {
			a.markDirty(e.Key)
		}
		if a.model != nil {
			a.model.Fill(e.L2, e.Key, e.Txn, e.State, e.Out)
		}
	case observe.Victim:
		a.onVictim(e.L2, e.Key, e.State, e.Action == l2.VictimQueued)
	case observe.WBReinstall:
		if a.model != nil {
			a.model.Reinstall(e.L2, e.WB)
		}
	case observe.WBCancelled:
		// An elected snarf winner's arbitration is void.
		if e.SnarfElected {
			a.cancelledSnarf++
		}
	case observe.WBSquashed:
		a.onWBSquashed(e.L2, e.WB, e.ByL3, e.Peer)
	case observe.WBSnarfed:
		if a.model != nil {
			a.model.Snarfed(e.L2, e.WB, e.Peer, e.Displaced, e.Dropped)
		}
	case observe.WBToL3:
		a.inflightL3[e.Key]++
		if e.WB.Kind == coherence.DirtyWB {
			a.dirtyInFl[e.Key]++
		}
		if a.model != nil {
			a.model.ToL3(e.L2, e.Key)
		}
	case observe.L3Retire:
		a.onL3Retire(e.Key, e.Txn, e.Displaced, e.Castout)
	case observe.TokenAcquired:
		a.tokens++
	case observe.TokenReleased:
		a.tokens--
		if a.tokens < 0 {
			a.report("token-underflow", 0, "more L3 queue tokens released than acquired")
			a.tokens = 0
		}
	}
}

// onVictim: a valid line left idx's tag array; queued reports a
// write-back queue entry was created for it.
func (a *Auditor) onVictim(idx int, key uint64, st coherence.State, queued bool) {
	if st.Dirty() && !queued {
		a.report("dirty-dropped", key,
			"L2 %d evicted dirty line in state %v without queueing a write back", idx, st)
	}
	if a.model != nil {
		a.model.Victim(idx, key, st, queued)
	}
}

// onWBSquashed: entry's write back was squashed — by the L3 redundancy
// filter when byL3, else by peer squasher holding a valid copy.
func (a *Auditor) onWBSquashed(idx int, e l2.WBEntry, byL3 bool, squasher int) {
	if byL3 {
		// Squash soundness: the L3 filter may only squash lines whose
		// tag is valid there at squash time (Section 2's baseline
		// filter); anything else silently discards the only copy in
		// flight.
		if !a.view.L3.Contains(e.Key) {
			a.report("squash-unsound", e.Key,
				"L3 squashed %v write back but does not hold the line", e.Kind)
		}
	} else if e.Kind == coherence.DirtyWB && squasher < 0 {
		a.report("squash-unsound", e.Key,
			"dirty write back squashed with no peer to inherit the obligation")
	}
	if a.model != nil {
		a.model.Squashed(idx, e, byL3, squasher)
	}
}

// onL3Retire: the L3 array write for key retired. castout (valid when
// hadCastout) is the dirty victim displaced toward memory.
func (a *Auditor) onL3Retire(key uint64, kind coherence.TxnKind, castout uint64, hadCastout bool) {
	if a.inflightL3[key] <= 0 {
		a.report("l3-retire-unmatched", key, "L3 retired a write that was never sent")
	} else {
		a.inflightL3[key]--
		if a.inflightL3[key] == 0 {
			delete(a.inflightL3, key)
		}
	}
	if kind == coherence.DirtyWB {
		if a.dirtyInFl[key] > 0 {
			a.dirtyInFl[key]--
			if a.dirtyInFl[key] == 0 {
				delete(a.dirtyInFl, key)
			}
		}
		// A dirty write back carries the line's latest data: the L3 copy
		// is now current.
		delete(a.l3Stale, key)
	}
	if hadCastout && !a.has(a.l3Stale, castout) {
		// The castout drains the latest dirty data to memory (unless an
		// L2 re-dirtied the line since, in which case that copy is the
		// one conservation must find).
		a.memValid[castout] = struct{}{}
	}
}

// markDirty notes that key's current data lives in an L2 Modified copy:
// memory and any L3 copy are stale from this instant until a dirty
// write back of the line retires.
func (a *Auditor) markDirty(key uint64) {
	a.dirty[key] = struct{}{}
	delete(a.memValid, key)
	a.l3Stale[key] = struct{}{}
}

func (a *Auditor) has(m map[uint64]struct{}, key uint64) bool {
	_, ok := m[key]
	return ok
}

// --- Sweeps ---

// sweep runs the whole-hierarchy checks: single-writer/supplier
// uniqueness over the L2 tag arrays, write-back queue sanity, the L3
// token ledger and dirty-line conservation.
func (a *Auditor) sweep() {
	a.sweeps++
	clear(a.holders)
	clear(a.queued)

	for i, c := range a.view.L2s {
		bit := uint64(1) << uint(i)
		c.ForEachLine(func(key uint64, st coherence.State, _ uint8) {
			h := a.holders[key]
			h.valid |= bit
			if st.Dirty() {
				h.dirty |= bit
			}
			if st == coherence.Exclusive || st == coherence.Modified {
				h.sole |= bit
			}
			if st == coherence.SharedLast {
				h.sl |= bit
			}
			a.holders[key] = h
		})
	}
	for key, h := range a.holders {
		if n := popcount(h.dirty); n > 1 {
			a.report("multi-dirty", key, "%d L2s hold the line dirty (mask %04b)", n, h.dirty)
		}
		if h.sole != 0 && popcount(h.valid) > 1 {
			a.report("sole-shared", key,
				"an E/M holder coexists with other valid copies (valid mask %04b)", h.valid)
		}
		if n := popcount(h.sl); n > 1 {
			a.report("multi-sl", key, "%d SharedLast suppliers (mask %04b)", n, h.sl)
		}
		if h.sl != 0 && h.dirty != 0 {
			a.report("sl-with-dirty", key,
				"a SharedLast supplier coexists with a dirty holder")
		}
		if h.sl == 0 && h.dirty == 0 && h.sole == 0 && popcount(h.valid) > 1 {
			// Legal after a supplier evicted (baseline has no hand-off);
			// tracked as a statistic, not a violation.
			a.supplierlessSweeps++
		}
	}

	for i, c := range a.view.L2s {
		a.qbuf = a.qbuf[:0]
		c.ForEachWB(func(e l2.WBEntry) { a.qbuf = append(a.qbuf, e) })
		inflight := 0
		for j, e := range a.qbuf {
			if e.InFlight && !e.Cancelled {
				inflight++
			}
			if e.Cancelled {
				continue
			}
			if e.Kind == coherence.DirtyWB {
				a.queued[e.Key] = struct{}{}
			}
			for _, f := range a.qbuf[j+1:] {
				if !f.Cancelled && f.Key == e.Key {
					a.report("wbq-duplicate", e.Key,
						"L2 %d write-back queue holds two live entries for one line", i)
				}
			}
		}
		if inflight > 1 {
			a.report("wbq-multi-inflight", 0,
				"L2 %d has %d write backs marked in flight (one bus slot per L2)", i, inflight)
		}
		if inflight > 0 && a.view.WBInFlight != nil && !a.view.WBInFlight(i) {
			a.report("wbq-phantom-inflight", 0,
				"L2 %d has an in-flight entry but no bus transaction", i)
		}
	}

	if got := a.view.L3.QueueInUse(); got != a.tokens {
		a.report("token-ledger", 0,
			"L3 incoming-queue occupancy %d does not match hook ledger %d", got, a.tokens)
	}

	a.checkConservation()
}

// checkConservation verifies every ever-dirty line's latest data is
// locatable somewhere in the hierarchy.
func (a *Auditor) checkConservation() {
	for key := range a.dirty {
		if a.holders[key].dirty != 0 {
			continue
		}
		if a.has(a.queued, key) {
			continue
		}
		if a.dirtyInFl[key] > 0 {
			continue
		}
		if present, dirty := a.view.L3.PeekLine(key); present && dirty && !a.has(a.l3Stale, key) {
			continue
		}
		if a.has(a.memValid, key) {
			continue
		}
		a.report("dirty-lost", key,
			"dirty line is in no L2, no live write-back entry, not in flight, not dirty in L3, not retired to memory")
	}
}

func popcount(b uint64) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// --- Drain ---

// Drain runs the end-of-run checks after the engine has emptied: a full
// sweep, the residual-resource zeros, the snarf arbitration cross-check
// and (when Differential) the complete reference-model comparison.
func (a *Auditor) Drain(now config.Cycles) {
	a.now = now
	a.sweep()

	for i, c := range a.view.L2s {
		if n := c.MSHRCount(); n != 0 {
			a.report("residual-mshr", 0, "L2 %d ends the run with %d live MSHRs", i, n)
		}
		if n := c.WBQueueLen(); n != 0 {
			a.report("residual-wbq", 0, "L2 %d ends the run with %d queued write backs", i, n)
		}
		if a.view.WBInFlight != nil && a.view.WBInFlight(i) {
			a.report("residual-wb-inflight", 0, "L2 %d ends the run with a write back on the bus", i)
		}
	}
	if a.tokens != 0 || a.view.L3.QueueInUse() != 0 {
		a.report("residual-tokens", 0,
			"L3 incoming queue ends the run holding %d tokens (ledger %d)",
			a.view.L3.QueueInUse(), a.tokens)
	}
	for key := range a.inflightL3 {
		a.report("residual-l3-inflight", key, "write back sent to the L3 never retired")
	}

	if a.view.Counters != nil {
		c := a.view.Counters()
		if c.SnarfArbitrated != c.WBSnarfed+c.SnarfFallbacks+a.cancelledSnarf {
			a.report("snarf-count-mismatch", 0,
				"arbitrated %d != snarfed %d + fallbacks %d + cancelled %d",
				c.SnarfArbitrated, c.WBSnarfed, c.SnarfFallbacks, a.cancelledSnarf)
		}
	}

	if a.model != nil {
		a.compareModel()
	}
}

// compareModel diffs the reference model's end state against the real
// tag arrays and write-back queues, both directions.
func (a *Auditor) compareModel() {
	for i, c := range a.view.L2s {
		modelLines := a.model.lines[i]
		seen := make(map[uint64]struct{}, len(modelLines))
		c.ForEachLine(func(key uint64, st coherence.State, _ uint8) {
			seen[key] = struct{}{}
			if want, ok := modelLines[key]; !ok {
				a.report("model-extra-line", key,
					"L2 %d holds the line in %v; the reference model says invalid", i, st)
			} else if want != st {
				a.report("model-state", key,
					"L2 %d holds the line in %v; the reference model says %v", i, st, want)
			}
		})
		for key, want := range modelLines {
			if _, ok := seen[key]; !ok {
				a.report("model-missing-line", key,
					"reference model says L2 %d holds the line in %v; the array says invalid", i, want)
			}
		}

		modelQ := a.model.queues[i]
		seenQ := make(map[uint64]struct{}, len(modelQ))
		c.ForEachWB(func(e l2.WBEntry) {
			if e.Cancelled {
				return
			}
			seenQ[e.Key] = struct{}{}
			if want, ok := modelQ[e.Key]; !ok {
				a.report("model-extra-wb", e.Key,
					"L2 %d queues a write back the reference model does not", i)
			} else if want != e.State {
				a.report("model-wb-state", e.Key,
					"L2 %d queues the entry in %v; the reference model says %v", i, e.State, want)
			}
		})
		for key := range modelQ {
			if _, ok := seenQ[key]; !ok {
				a.report("model-missing-wb", key,
					"reference model queues a write back for L2 %d that the queue lacks", i)
			}
		}
	}
}

// --- Reporting ---

// Violations returns the recorded violations, oldest first.
func (a *Auditor) Violations() []Violation { return a.violations }

// Truncated returns how many distinct violations overflowed
// MaxViolations.
func (a *Auditor) Truncated() int { return a.truncated }

// Ok reports whether the run finished with no invariant violations.
func (a *Auditor) Ok() bool { return len(a.violations) == 0 && a.truncated == 0 }

// Sweeps returns how many full sweeps ran (diagnostics).
func (a *Auditor) Sweeps() uint64 { return a.sweeps }

// Summary renders a human-readable report: one line per violation plus
// a footer, or a clean bill of health.
func (a *Auditor) Summary() string {
	if a.Ok() {
		return fmt.Sprintf("audit: ok (%d sweeps, %d dirty lines tracked, no violations)\n",
			a.sweeps, len(a.dirty))
	}
	vs := make([]Violation, len(a.violations))
	copy(vs, a.violations)
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].Cycle < vs[j].Cycle })
	out := ""
	for _, v := range vs {
		out += v.String() + "\n"
	}
	out += fmt.Sprintf("audit: %d violations", len(vs))
	if a.truncated > 0 {
		out += fmt.Sprintf(" (+%d truncated)", a.truncated)
	}
	return out + "\n"
}
