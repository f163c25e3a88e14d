package cpu

import (
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/sim"
	"cmpcache/internal/trace"
)

// instantIssue completes every access after a fixed latency.
func instantIssue(e *sim.Engine, latency config.Cycles) (IssueFunc, *[]uint64) {
	var keys []uint64
	return func(tid int, op trace.Op, key uint64, done func(config.Cycles)) {
		keys = append(keys, key)
		at := e.Now() + latency
		e.At(at, func() { done(at) })
	}, &keys
}

// chunkStream yields its records in fixed-size chunks.
type chunkStream struct {
	recs []trace.Record
	size int
}

func (c *chunkStream) NextChunk() ([]trace.Record, error) {
	n := c.size
	if n > len(c.recs) {
		n = len(c.recs)
	}
	chunk := c.recs[:n]
	c.recs = c.recs[n:]
	return chunk, nil
}

// feed builds a complex over per-thread record slices served in chunks
// of size records; nil slices are idle threads.
func feed(t *testing.T, e *sim.Engine, cfg *config.Config, recs [][]trace.Record, size int, issue IssueFunc) *Complex {
	t.Helper()
	streams := make([]trace.Stream, len(recs))
	for i, r := range recs {
		if r != nil {
			streams[i] = &chunkStream{recs: r, size: size}
		}
	}
	c, err := NewStreams(e.Lane(0), cfg, streams, issue)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkStream(tid int, n int, gap uint32) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Thread: uint16(tid), Op: trace.Load, Addr: uint64(i) * 128, Gap: gap}
	}
	return recs
}

func TestSerialIssueWithGaps(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	cfg.MaxOutstanding = 1
	issue, keys := instantIssue(e, 10)
	c := feed(t, e, &cfg, [][]trace.Record{mkStream(0, 3, 5)}, 2, issue)
	c.Start()
	e.Run()
	if !c.Done() {
		t.Fatal("not done after run")
	}
	// With max=1 and latency 10 > gap 5: issues at 5, then next issue
	// waits for completion at 15, but gap eligibility (15+... lastIssue
	// 15? issue2 at max(5+5,15)=15, completes 25, issue3 at 25.
	if got := c.FinishTime(); got != 35 {
		t.Fatalf("FinishTime = %d, want 35", got)
	}
	if c.Issued() != 3 || c.Completed() != 3 {
		t.Fatalf("issued/completed = %d/%d", c.Issued(), c.Completed())
	}
	if len(*keys) != 3 {
		t.Fatalf("keys = %v", *keys)
	}
	// Addresses are line-shifted.
	if (*keys)[1] != 1 {
		t.Fatalf("key[1] = %d, want 1 (128B lines)", (*keys)[1])
	}
}

func TestOutstandingLimitOverlapsMisses(t *testing.T) {
	// With latency 100 and gap 0, max outstanding misses bounds overlap:
	// total time for N refs ~= ceil(N/max)*100.
	run := func(max int) config.Cycles {
		e := sim.NewEngine()
		cfg := config.Default()
		cfg.MaxOutstanding = max
		issue, _ := instantIssue(e, 100)
		c := feed(t, e, &cfg, [][]trace.Record{mkStream(0, 12, 0)}, 5, issue)
		c.Start()
		e.Run()
		return c.FinishTime()
	}
	t1, t2, t6 := run(1), run(2), run(6)
	if t1 != 1200 || t2 != 600 || t6 != 200 {
		t.Fatalf("finish times = %d/%d/%d, want 1200/600/200", t1, t2, t6)
	}
}

func TestMaxOutstandingNeverExceeded(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	cfg.MaxOutstanding = 3
	var c *Complex
	maxSeen := 0
	issue := func(tid int, op trace.Op, key uint64, done func(config.Cycles)) {
		if c.Outstanding() > maxSeen {
			maxSeen = c.Outstanding()
		}
		at := e.Now() + 50
		e.At(at, func() { done(at) })
	}
	c = feed(t, e, &cfg, [][]trace.Record{mkStream(0, 40, 1)}, 40, issue)
	c.Start()
	e.Run()
	if maxSeen > 3 {
		t.Fatalf("outstanding reached %d, limit 3", maxSeen)
	}
	if !c.Done() {
		t.Fatal("not done")
	}
}

func TestMultipleThreadsIndependent(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	cfg.MaxOutstanding = 1
	issue, _ := instantIssue(e, 10)
	streams := [][]trace.Record{mkStream(0, 5, 0), mkStream(1, 5, 0), nil}
	c := feed(t, e, &cfg, streams, 3, issue)
	c.Start()
	e.Run()
	if !c.Done() {
		t.Fatal("not done")
	}
	// Each thread: 5 serial 10-cycle accesses = 50.
	if c.FinishTime() != 50 {
		t.Fatalf("FinishTime = %d, want 50 (threads overlap)", c.FinishTime())
	}
	if c.Issued() != 10 {
		t.Fatalf("Issued = %d, want 10", c.Issued())
	}
}

func TestEmptyStreamsDoneImmediately(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	issue, _ := instantIssue(e, 1)
	c := feed(t, e, &cfg, [][]trace.Record{nil, {}}, 1, issue)
	c.Start()
	e.Run()
	if !c.Done() || c.FinishTime() != 0 {
		t.Fatalf("done=%v finish=%d", c.Done(), c.FinishTime())
	}
}

func TestNilIssuePanics(t *testing.T) {
	cfg := config.Default()
	defer func() {
		if recover() == nil {
			t.Fatal("nil issue accepted")
		}
	}()
	NewStreams(sim.NewEngine().Lane(0), &cfg, nil, nil)
}

func TestL1FilterAbsorbsHits(t *testing.T) {
	cfg := config.Default()
	f := NewL1Filter(&cfg)
	recs := []trace.Record{
		{Op: trace.Load, Addr: 0x1000, Gap: 5}, // miss
		{Op: trace.Load, Addr: 0x1008, Gap: 3}, // same line: hit
		{Op: trace.Load, Addr: 0x1000, Gap: 2}, // hit
		{Op: trace.Load, Addr: 0x2000, Gap: 4}, // miss
	}
	out := f.Filter(recs)
	if len(out) != 2 {
		t.Fatalf("emitted %d records, want 2", len(out))
	}
	// Gaps of the two hits (3+1, 2+1) fold into the second miss.
	if out[1].Gap != 4+3+1+2+1 {
		t.Fatalf("accumulated gap = %d, want 11", out[1].Gap)
	}
	if f.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", f.HitRate())
	}
}

func TestL1FilterStoreNoAllocate(t *testing.T) {
	cfg := config.Default()
	f := NewL1Filter(&cfg)
	recs := []trace.Record{
		{Op: trace.Store, Addr: 0x1000}, // miss: emitted, not allocated
		{Op: trace.Store, Addr: 0x1000}, // still a miss: emitted again
		{Op: trace.Load, Addr: 0x1000},  // load miss: allocates
		{Op: trace.Store, Addr: 0x1000}, // now resident: gathered
	}
	out := f.Filter(recs)
	if len(out) != 3 {
		t.Fatalf("emitted %d, want 3 (store-no-allocate then gather)", len(out))
	}
}

func TestL1FilterSeparatesIAndD(t *testing.T) {
	cfg := config.Default()
	f := NewL1Filter(&cfg)
	recs := []trace.Record{
		{Op: trace.Load, Addr: 0x4000},   // D miss
		{Op: trace.Ifetch, Addr: 0x4000}, // same line, I stream: still a miss
	}
	if out := f.Filter(recs); len(out) != 2 {
		t.Fatalf("emitted %d, want 2 (Harvard split)", len(out))
	}
}

func TestL1FilterCapacityEviction(t *testing.T) {
	cfg := config.Default()
	f := NewL1Filter(&cfg)
	lines := cfg.L1KB * 1024 / cfg.LineBytes
	var recs []trace.Record
	// Two passes over 2x the L1 capacity: second pass must still miss.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 2*lines; i++ {
			recs = append(recs, trace.Record{Op: trace.Load, Addr: uint64(i) * 128})
		}
	}
	out := f.Filter(recs)
	if len(out) != len(recs) {
		t.Fatalf("emitted %d of %d, want all (working set 2x L1)", len(out), len(recs))
	}
}

func TestFilterTrace(t *testing.T) {
	cfg := config.Default()
	tr := &trace.Trace{Name: "x", Threads: 2, Records: []trace.Record{
		{Thread: 0, Op: trace.Load, Addr: 0x1000},
		{Thread: 1, Op: trace.Load, Addr: 0x1000}, // private L1s: also a miss
		{Thread: 0, Op: trace.Load, Addr: 0x1000}, // hit in thread 0's L1
	}}
	out := FilterTrace(&cfg, tr)
	if len(out.Records) != 2 {
		t.Fatalf("filtered records = %d, want 2", len(out.Records))
	}
	if out.Threads != 2 || out.Name != "x" {
		t.Fatal("metadata lost")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}
