// Package cpu models the processor front end of the simulated CMP: the
// sixteen SMT hardware threads that replay L2-traffic traces against the
// cache hierarchy, each limited to a configurable number of outstanding
// misses — the memory-pressure parameter the paper sweeps from one to
// six in every figure ("One parameter we vary is the maximum number of
// outstanding read and write misses per thread").
//
// A thread issues its references in order, separated by the per-record
// compute gaps captured in the trace. An access occupies one of the
// thread's outstanding-miss slots from issue until the hierarchy
// reports completion; when all slots are busy the thread stalls. This
// reproduces the paper's load/store-queue abstraction without modeling
// instruction execution.
package cpu

import (
	"fmt"
	"math/bits"

	"cmpcache/internal/config"
	"cmpcache/internal/sim"
	"cmpcache/internal/trace"
)

// IssueFunc submits one reference to the memory hierarchy. key is the
// line address (byte address pre-shifted by the line size); done must be
// called exactly once, at the simulation time the access completes.
type IssueFunc func(tid int, op trace.Op, key uint64, done func(config.Cycles))

// thread is one SMT hardware context. recs is the thread's current
// window into its reference stream, one chunk at a time: draining recs
// refills it from src until the stream is exhausted.
type thread struct {
	id          int
	recs        []trace.Record
	idx         int
	src         trace.Stream
	exhausted   bool // src returned its final chunk
	outstanding int
	lastIssue   config.Cycles
	wakePending bool
	done        bool

	// doneFn is the thread's completion callback, bound once at
	// construction so issuing a reference allocates nothing.
	doneFn func(config.Cycles)

	issued    uint64
	completed uint64
	finish    config.Cycles
}

// Complex is the full set of hardware threads bound to an engine lane
// and an issue path.
type Complex struct {
	lane      sim.Lane
	issue     IssueFunc
	threads   []thread
	lineShift uint
	max       int
	active    int
	finish    config.Cycles

	// hTryIssue is the wake/park event handler (EventData.Ptr is the
	// thread), bound once so per-cycle scheduling allocates nothing.
	hTryIssue sim.Handler
}

// NewStreams builds a thread complex fed by chunked per-thread streams
// (trace.Source.Stream); streams[i] is thread i's stream and nil
// entries are idle threads. cfg supplies the line size and the
// outstanding-miss limit. Each thread holds one chunk at a time, so
// replay memory is bounded by the source's chunk size rather than the
// trace length. The first chunk of every stream is fetched eagerly so
// open/decode errors surface at construction; a mid-run stream error
// panics — the simulation cannot meaningfully continue on a truncated
// stream, and the sweep worker's recover converts the panic into a
// per-job error.
func NewStreams(lane sim.Lane, cfg *config.Config, streams []trace.Stream, issue IssueFunc) (*Complex, error) {
	if issue == nil {
		panic("cpu: nil issue function")
	}
	c := &Complex{
		lane:      lane,
		issue:     issue,
		threads:   make([]thread, len(streams)),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		max:       cfg.MaxOutstanding,
	}
	c.hTryIssue = func(d sim.EventData) { c.tryIssue(d.Ptr.(*thread)) }
	for i, src := range streams {
		th := &c.threads[i]
		th.id, th.src, th.done = i, src, true
		th.doneFn = func(at config.Cycles) { c.complete(th, at) }
		if src == nil {
			continue
		}
		chunk, err := src.NextChunk()
		if err != nil {
			return nil, fmt.Errorf("cpu: thread %d stream: %w", i, err)
		}
		if len(chunk) == 0 {
			th.exhausted = true
		} else {
			th.recs, th.done = chunk, false
			c.active++
		}
	}
	return c, nil
}

// refill advances the thread's stream window to its next chunk,
// reporting whether more records are available.
func (c *Complex) refill(th *thread) bool {
	if th.exhausted {
		return false
	}
	chunk, err := th.src.NextChunk()
	if err != nil {
		panic(fmt.Sprintf("cpu: thread %d stream: %v", th.id, err))
	}
	if len(chunk) == 0 {
		th.exhausted = true
		return false
	}
	th.recs, th.idx = chunk, 0
	return true
}

// Start schedules each thread's first issue attempt at cycle zero.
func (c *Complex) Start() {
	for i := range c.threads {
		if th := &c.threads[i]; !th.done {
			c.lane.ScheduleCall(0, c.hTryIssue, sim.EventData{Ptr: th})
		}
	}
}

// tryIssue drains as many references as the thread's gap schedule and
// outstanding-miss budget allow, then either parks until the next
// eligible time or waits for a completion to wake it.
func (c *Complex) tryIssue(th *thread) {
	th.wakePending = false
	now := c.lane.Now()
	for th.outstanding < c.max {
		if th.idx == len(th.recs) && !c.refill(th) {
			break
		}
		r := th.recs[th.idx]
		eligible := th.lastIssue + config.Cycles(r.Gap)
		if eligible > now {
			if !th.wakePending {
				th.wakePending = true
				c.lane.AtCall(eligible, c.hTryIssue, sim.EventData{Ptr: th})
			}
			return
		}
		th.idx++
		th.outstanding++
		th.issued++
		th.lastIssue = now
		key := r.Addr >> c.lineShift
		c.issue(th.id, r.Op, key, th.doneFn)
		now = c.lane.Now() // issue may run nested events
	}
	c.checkDone(th, now)
}

// complete returns an outstanding-miss slot and re-attempts issue.
func (c *Complex) complete(th *thread, at config.Cycles) {
	if th.outstanding <= 0 {
		panic("cpu: completion without outstanding access")
	}
	th.outstanding--
	th.completed++
	if at > th.finish {
		th.finish = at
	}
	c.tryIssue(th)
}

func (c *Complex) checkDone(th *thread, now config.Cycles) {
	if th.done || th.idx < len(th.recs) || th.outstanding > 0 {
		return
	}
	if !th.exhausted {
		// The current chunk drained but the stream may have more; the
		// next tryIssue will refill.
		return
	}
	th.done = true
	c.active--
	if th.finish > c.finish {
		c.finish = th.finish
	}
	if now > c.finish {
		c.finish = now
	}
}

// Done reports whether every thread has drained its stream.
func (c *Complex) Done() bool { return c.active == 0 }

// FinishTime returns the cycle the last reference completed (valid once
// Done).
func (c *Complex) FinishTime() config.Cycles { return c.finish }

// Issued returns total references issued across threads.
func (c *Complex) Issued() uint64 {
	var n uint64
	for i := range c.threads {
		n += c.threads[i].issued
	}
	return n
}

// Completed returns total references completed across threads.
func (c *Complex) Completed() uint64 {
	var n uint64
	for i := range c.threads {
		n += c.threads[i].completed
	}
	return n
}

// Outstanding returns the current number of in-flight accesses (test
// and diagnostics hook).
func (c *Complex) Outstanding() int {
	n := 0
	for i := range c.threads {
		n += c.threads[i].outstanding
	}
	return n
}
