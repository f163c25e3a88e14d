// Package sim provides a minimal discrete-event simulation engine and a
// small set of queued-resource models (single servers, multi-servers and
// finite token queues) used by every timed component in the simulator.
//
// Time is measured in integer core cycles. Events are ordered by
// (cycle, lane, scheduling order): every event belongs to a lane, events
// of one cycle fire in lane order, and within a lane in FIFO order of
// scheduling. That total order keeps simulations deterministic for a
// fixed input. Events scheduled on the Engine itself take the last
// lane, after every Lane view's events of the same cycle.
//
// The engine's hot path is allocation-free in steady state: the pending
// set is an inlined 4-ary min-heap specialized to the event record (no
// container/heap interface boxing), and the (Handler, EventData) event
// form lets components schedule work through handlers bound once at
// construction instead of allocating a closure per event. The classic
// closure form (Schedule/At with a func()) remains available for cold
// paths and tests.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in core clock cycles.
type Time int64

// Forever is a time later than any reachable simulation time.
const Forever Time = math.MaxInt64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Handler is an event callback that receives the EventData it was
// scheduled with. Components bind their handlers once (typically as
// struct fields at construction) and pass per-event state through
// EventData, so scheduling allocates nothing.
type Handler func(d EventData)

// EventData is the payload carried by a scheduled event. The fields are
// generic slots — a component pointer, a cache-line key, an auxiliary
// integer, a discriminator and a flag — that cover every scheduling site
// in the simulator without per-event heap state. Ptr holds pointer-shaped
// values (pointers, funcs, maps); storing those in an interface does not
// allocate.
type EventData struct {
	Ptr  any
	Key  uint64
	Aux  int64
	Kind int8
	Flag bool
}

// Lanes: the top laneBits bits of an event's seq word hold its lane,
// the rest a scheduling counter, so comparing seq words orders
// same-cycle events by lane first and FIFO within a lane. The counter's
// 56 bits outlast any run (2^56 events).
const (
	laneBits  = 8
	laneShift = 64 - laneBits

	// MaxLanes is the number of Lane views an engine offers, numbered
	// 0..MaxLanes-1. The engine's own scheduling calls use lane
	// MaxLanes, after all of them.
	MaxLanes = 1<<laneBits - 1

	defaultLane = uint64(MaxLanes) << laneShift
)

// scheduledEvent is one pending queue entry. Events are stored by value
// in the heap; nothing is boxed.
type scheduledEvent struct {
	at  Time
	seq uint64 // tie-breaker: lane, then FIFO, among same-cycle events
	h   Handler
	d   EventData
}

// before orders events by (time, lane, scheduling sequence) — the total
// order every queue implementation must reproduce exactly.
func (a *scheduledEvent) before(b *scheduledEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// runClosure adapts the closure event form onto the handler form.
func runClosure(d EventData) { d.Ptr.(Event)() }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	events  []scheduledEvent // 4-ary min-heap ordered by before()
	stopped bool
	fired   uint64
}

// NewEngine returns an empty engine positioned at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Grow pre-sizes the pending-event queue to hold at least n events
// without reallocating, avoiding growth copies mid-run.
func (e *Engine) Grow(n int) {
	if n <= cap(e.events) {
		return
	}
	grown := make([]scheduledEvent, len(e.events), n)
	copy(grown, e.events)
	e.events = grown
}

// Schedule runs fn after delay cycles. A negative delay panics: the past
// is immutable.
func (e *Engine) Schedule(delay Time, fn Event) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %d cycles in the past", -delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the absolute cycle t, which must not precede Now.
func (e *Engine) At(t Time, fn Event) {
	if fn == nil {
		panic("sim: nil event")
	}
	e.AtCall(t, runClosure, EventData{Ptr: fn})
}

// ScheduleCall runs h with d after delay cycles. A negative delay
// panics: the past is immutable.
func (e *Engine) ScheduleCall(delay Time, h Handler, d EventData) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %d cycles in the past", -delay))
	}
	e.AtCall(e.now+delay, h, d)
}

// AtCall runs h with d at the absolute cycle t, which must not precede
// Now. This is the allocation-free scheduling primitive.
func (e *Engine) AtCall(t Time, h Handler, d EventData) { e.atCall(t, defaultLane, h, d) }

// atCall queues h with d at cycle t on the lane whose bits are lane.
func (e *Engine) atCall(t Time, lane uint64, h Handler, d EventData) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) before now (%d)", t, e.now))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	e.push(scheduledEvent{at: t, seq: lane | e.seq, h: h, d: d})
	e.seq++
}

// Lane is a view of an engine that schedules onto one lane. Its events
// share the engine's clock and queue; at equal cycles they fire after
// lower lanes' events and before higher lanes' (and the engine's own).
type Lane struct {
	e    *Engine
	bits uint64
}

// Lane returns the view that schedules onto lane i, 0 <= i < MaxLanes.
func (e *Engine) Lane(i int) Lane {
	if i < 0 || i >= MaxLanes {
		panic(fmt.Sprintf("sim: lane %d outside [0, %d)", i, MaxLanes))
	}
	return Lane{e: e, bits: uint64(i) << laneShift}
}

// Now returns the engine's current simulation time.
func (l Lane) Now() Time { return l.e.now }

// AtCall runs h with d at the absolute cycle t on this lane. t must not
// precede Now.
func (l Lane) AtCall(t Time, h Handler, d EventData) { l.e.atCall(t, l.bits, h, d) }

// ScheduleCall runs h with d after delay cycles on this lane. A
// negative delay panics.
func (l Lane) ScheduleCall(delay Time, h Handler, d EventData) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %d cycles in the past", -delay))
	}
	l.e.atCall(l.e.now+delay, l.bits, h, d)
}

// Pending reports the number of events waiting to fire. The event whose
// handler is currently executing has already been popped, so a handler
// that schedules nothing observes Pending() == 0 when it is the last
// event in the queue — Pending counts the future, never the present.
func (e *Engine) Pending() int { return len(e.events) }

// NextTime returns the timestamp of the earliest pending event, or
// Forever when the queue is empty. It never fires or reorders anything.
func (e *Engine) NextTime() Time {
	if len(e.events) == 0 {
		return Forever
	}
	return e.events[0].at
}

// Stop makes the current Run observe the stop after the currently
// executing event's handler returns. Calling it from inside an event
// handler is the intended use (a watchdog or deadline event halting its
// own run); calling it between runs is a no-op because Run clears the
// flag on entry. Stop never discards events: everything still pending
// (including events the stopping handler itself scheduled) remains
// queued and a subsequent Run resumes exactly where the stopped one
// left off.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and reports whether one
// was available.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.fired++
	ev.h(ev.d)
	return true
}

// Run executes events until none remain or Stop is called. It returns the
// final simulation time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// --- 4-ary min-heap, specialized to scheduledEvent ---
//
// A 4-ary heap halves tree depth versus the binary container/heap,
// trading a wider (cache-line-friendly) child scan per level for fewer
// levels, and its monomorphic sift routines avoid the Less/Swap/Pop
// interface dispatch and the per-Pop any boxing of container/heap.

// push appends ev and restores the heap invariant by sifting up.
func (e *Engine) push(ev scheduledEvent) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the minimum event.
func (e *Engine) pop() scheduledEvent {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = scheduledEvent{} // release the Ptr reference for GC
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
