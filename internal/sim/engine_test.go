package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("Run of empty engine = %d, want 0", got)
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of FIFO order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(3, func() {
		hits = append(hits, e.Now())
		e.Schedule(4, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 3 || hits[1] != 7 {
		t.Fatalf("hits = %v, want [3 7]", hits)
	}
}

func TestEngineScheduleZeroDelayDuringEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5, func() {
		e.Schedule(0, func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Fatal("zero-delay event scheduled from an event did not run")
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestEngineAtBeforeNowPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At before now did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	e.At(1, nil)
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("events after Stop: count = %d, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
}

func TestEngineMonotonicTime(t *testing.T) {
	// Property: regardless of the (delay) sequence scheduled, observed
	// firing times never decrease.
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestEngineHandlerForm(t *testing.T) {
	e := NewEngine()
	var got []EventData
	h := func(d EventData) { got = append(got, d) }
	e.ScheduleCall(4, h, EventData{Key: 2})
	e.AtCall(1, h, EventData{Key: 1, Kind: 7, Flag: true, Aux: -3})
	e.Run()
	if len(got) != 2 || got[0].Key != 1 || got[1].Key != 2 {
		t.Fatalf("handler events = %+v, want Key order [1 2]", got)
	}
	if d := got[0]; d.Kind != 7 || !d.Flag || d.Aux != -3 {
		t.Fatalf("EventData payload not preserved: %+v", d)
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
}

func TestEngineNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.AtCall(1, nil, EventData{})
}

func TestEngineGrow(t *testing.T) {
	e := NewEngine()
	var sum int64
	h := func(d EventData) { sum += d.Aux }
	e.ScheduleCall(3, h, EventData{Aux: 1})
	e.Grow(4096)
	e.ScheduleCall(1, h, EventData{Aux: 2})
	for i := 0; i < 100; i++ {
		e.ScheduleCall(Time(i%10), h, EventData{Aux: 10})
	}
	e.Run()
	if sum != 1003 {
		t.Fatalf("sum = %d, want 1003 (Grow lost or duplicated events)", sum)
	}
}

// --- Reference queue: container/heap over the (at, lane, seq) order ---
//
// refEvent/refQueue are a plain container/heap over explicit
// (at, lane, seq) triples — the ordering oracle the specialized 4-ary
// heap with its lane-packed seq word must match event for event.

type refEvent struct {
	at   Time
	lane int
	seq  uint64
	id   int
}

type refQueue []refEvent

func (h refQueue) Len() int { return len(h) }
func (h refQueue) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].lane != h[j].lane {
		return h[i].lane < h[j].lane
	}
	return h[i].seq < h[j].seq
}
func (h refQueue) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *refQueue) Push(x any)       { *h = append(*h, x.(refEvent)) }
func (h *refQueue) Pop() any         { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func (h *refQueue) popMin() refEvent { return heap.Pop(h).(refEvent) }
func (h *refQueue) add(ev refEvent)  { heap.Push(h, ev) }

// TestEngineMatchesReferenceQueue runs one randomized schedule on the
// engine and as a reference simulation over the container/heap queue:
// events on random lanes (the engine's own included), some scheduling
// children — on lower lanes of the same cycle too. The firing order,
// firing times, Fired() count and final Now() must be identical. This
// is the bit-exact determinism contract every experiment golden rests
// on: same-cycle events fire in lane order, and in FIFO scheduling
// order within a lane.
func TestEngineMatchesReferenceQueue(t *testing.T) {
	type sched struct {
		lane  int // MaxLanes: the engine's own
		delay Time
	}
	// Lanes mix low, high and the engine's own, so packed lane bits of
	// every width take part in the comparison.
	lanes := []int{0, 1, 2, 3, 63, MaxLanes - 1, MaxLanes}
	// Some events schedule children; the plan is a function of the
	// parent id so both simulations agree.
	children := func(id int) []sched {
		if id%3 != 0 {
			return nil
		}
		return []sched{{lanes[id%len(lanes)], Time(id % 7)}, {lanes[(id/3)%len(lanes)], Time(id % 11)}}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roots := make([]sched, 200)
		for i := range roots {
			roots[i] = sched{lanes[rng.Intn(len(lanes))], Time(rng.Intn(50))}
		}

		e := NewEngine()
		var engineOrder []int
		var engineTimes []Time
		nextID := 0
		var h Handler
		schedule := func(c sched) {
			d := EventData{Key: uint64(nextID)}
			nextID++
			if c.lane == MaxLanes {
				e.ScheduleCall(c.delay, h, d)
			} else {
				e.Lane(c.lane).ScheduleCall(c.delay, h, d)
			}
		}
		h = func(d EventData) {
			engineOrder = append(engineOrder, int(d.Key))
			engineTimes = append(engineTimes, e.Now())
			for _, c := range children(int(d.Key)) {
				schedule(c)
			}
		}
		for _, c := range roots {
			schedule(c)
		}
		e.Run()

		ref := refQueue{}
		var now Time
		var seq uint64
		refID := 0
		add := func(c sched) {
			ref.add(refEvent{at: now + c.delay, lane: c.lane, seq: seq, id: refID})
			seq++
			refID++
		}
		for _, c := range roots {
			add(c)
		}
		var refOrder []int
		var refTimes []Time
		for ref.Len() > 0 {
			ev := ref.popMin()
			now = ev.at
			refOrder = append(refOrder, ev.id)
			refTimes = append(refTimes, ev.at)
			for _, c := range children(ev.id) {
				add(c)
			}
		}

		if len(engineOrder) != len(refOrder) {
			t.Fatalf("seed %d: engine fired %d events, reference %d",
				seed, len(engineOrder), len(refOrder))
		}
		for i := range refOrder {
			if engineOrder[i] != refOrder[i] || engineTimes[i] != refTimes[i] {
				t.Fatalf("seed %d: event %d: engine fired %d at %d, reference %d at %d",
					seed, i, engineOrder[i], engineTimes[i], refOrder[i], refTimes[i])
			}
		}
		if e.Fired() != uint64(len(refOrder)) {
			t.Fatalf("seed %d: Fired = %d, want %d", seed, e.Fired(), len(refOrder))
		}
		if e.Now() != now {
			t.Fatalf("seed %d: Now = %d after drain, want %d", seed, e.Now(), now)
		}
	}
}

// TestEngineLaneOrder: events of one cycle fire in lane order — the
// engine's own lane last — whatever order they were scheduled in, and
// in FIFO scheduling order within each lane; an earlier cycle still
// fires first whatever its lane.
func TestEngineLaneOrder(t *testing.T) {
	e := NewEngine()
	type fired struct{ lane, n int }
	var got []fired
	h := func(d EventData) { got = append(got, fired{int(d.Aux), int(d.Key)}) }
	for n := 0; n < 3; n++ {
		for _, lane := range []int{MaxLanes, 2, 0, 1} {
			d := EventData{Aux: int64(lane), Key: uint64(n)}
			if lane == MaxLanes {
				e.AtCall(5, h, d)
			} else {
				e.Lane(lane).AtCall(5, h, d)
			}
		}
	}
	e.AtCall(4, h, EventData{Aux: MaxLanes, Key: 9})
	e.Run()
	want := []fired{{MaxLanes, 9}}
	for _, lane := range []int{0, 1, 2, MaxLanes} {
		for n := 0; n < 3; n++ {
			want = append(want, fired{lane, n})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Lane(1).Now() != 5 {
		t.Fatalf("Lane.Now = %d, want the engine's 5", e.Lane(1).Now())
	}
}

// TestEngineLaneBounds: lanes outside [0, MaxLanes) panic, as does a
// lane scheduling into the past.
func TestEngineLaneBounds(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	mustPanic("Lane(-1)", func() { e.Lane(-1) })
	mustPanic("Lane(MaxLanes)", func() { e.Lane(MaxLanes) })
	mustPanic("negative lane delay", func() { e.Lane(0).ScheduleCall(-1, func(EventData) {}, EventData{}) })
}

// TestEngineSameCycleFIFOProperty: for any batch sizes, events scheduled
// for one cycle from multiple scheduling rounds fire strictly in
// scheduling order.
func TestEngineSameCycleFIFOProperty(t *testing.T) {
	f := func(batches []uint8) bool {
		e := NewEngine()
		var order []int
		h := func(d EventData) { order = append(order, int(d.Key)) }
		id := 0
		for _, b := range batches {
			for j := 0; j < int(b%8); j++ {
				e.ScheduleCall(3, h, EventData{Key: uint64(id)})
				id++
			}
		}
		e.Run()
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return len(order) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineScheduleStepAllocationFree is the hot-path contract: once
// the queue slice has its capacity, scheduling (on the engine and
// through a Lane view) and stepping allocate nothing — no interface
// boxing, no closure, no growth.
func TestEngineScheduleStepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := NewEngine()
	e.Grow(64)
	lane := e.Lane(3)
	var sink uint64
	h := func(d EventData) { sink += d.Key }
	arg := &sink // a live pointer payload, as real handlers carry
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(1, h, EventData{Ptr: arg, Key: 1})
		lane.AtCall(lane.Now()+2, h, EventData{Ptr: arg, Key: 2})
		lane.ScheduleCall(2, h, EventData{Ptr: arg, Key: 3})
		e.Step()
		e.Step()
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("ScheduleCall+Step allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestEngineDeepQueueAllocationFree exercises the same contract with a
// standing population of pending events, so both sift directions run.
func TestEngineDeepQueueAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := NewEngine()
	e.Grow(4096)
	h := func(d EventData) {}
	for i := 0; i < 1000; i++ {
		e.ScheduleCall(Time(1+i%97), h, EventData{Key: uint64(i)})
	}
	lane := e.Lane(1)
	avg := testing.AllocsPerRun(500, func() {
		e.ScheduleCall(Time(1+e.Now()%89), h, EventData{})
		lane.AtCall(e.Now()+Time(1+e.Now()%83), h, EventData{})
		e.Step()
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("deep-queue ScheduleCall+Step allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestEngineStopInsideHandlerResumes pins the documented Stop contract
// end to end: a handler stopping its own run discards nothing — not
// even events it scheduled itself — and the next Run resumes exactly
// where the stopped one left off, because Run clears the flag on entry
// (so a stale Stop between runs is a no-op).
func TestEngineStopInsideHandlerResumes(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(5, func() {
		fired = append(fired, e.Now())
		// Schedule more work, then halt: both the pre-existing event at
		// 10 and this fresh one at 7 must survive the stop.
		e.Schedule(2, func() { fired = append(fired, e.Now()) })
		e.Stop()
	})
	e.Schedule(10, func() { fired = append(fired, e.Now()) })

	if at := e.Run(); at != 5 {
		t.Fatalf("stopped Run returned time %d, want 5", at)
	}
	if len(fired) != 1 || e.Pending() != 2 {
		t.Fatalf("after stop: fired %v, pending %d; want [5] and 2 queued", fired, e.Pending())
	}
	if nt := e.NextTime(); nt != 7 {
		t.Fatalf("NextTime after stop = %d, want 7 (handler's own event kept)", nt)
	}

	e.Stop() // between runs: must be a no-op, Run clears it on entry
	e.Run()
	want := []Time{5, 7, 10}
	if len(fired) != 3 || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("resumed run fired %v, want %v", fired, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain, want 0", e.Pending())
	}
	if nt := e.NextTime(); nt != Forever {
		t.Fatalf("NextTime on empty wheel = %d, want Forever", nt)
	}
}
