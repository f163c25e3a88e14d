package txlat

import (
	"encoding/json"
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
)

func findGroup(t *testing.T, r *Report, kind, outcome string, sw bool) *GroupReport {
	t.Helper()
	for i := range r.Groups {
		g := &r.Groups[i]
		if g.Kind == kind && g.Outcome == outcome && g.SwitchActive == sw {
			return g
		}
	}
	t.Fatalf("no group %s/%s switch=%v in %+v", kind, outcome, sw, r.Groups)
	return nil
}

func stageOf(t *testing.T, g *GroupReport, name string) StageReport {
	t.Helper()
	for _, s := range g.Stages {
		if s.Stage == name {
			return s
		}
	}
	t.Fatalf("group %s/%s has no stage %q", g.Kind, g.Outcome, name)
	return StageReport{}
}

// TestDemandLifecycle drives one read miss through every hook and
// checks the exact per-stage attribution.
func TestDemandLifecycle(t *testing.T) {
	c := New(Config{})
	// issued at 10, MSHR allocated at 14 (frontend = 4)
	c.demandIssued(0, 0x100, 10, 14)
	// bus start at 14, combined response at 40 (arb = 26)
	c.demandStart(0, 0x100, coherence.Read, false, 14, 40)
	c.demandCombine(0, 0x100, coherence.SourceL3, 40)
	// source data ready at 140 (source = 100)
	c.demandSourceReady(0, 0x100, 140)
	// delivered at 160 (xfer = 20)
	c.demandComplete(0, 0x100, 160)

	r := c.Finish(200)
	g := findGroup(t, r, "READ", "l3", false)
	if g.Total.Count != 1 {
		t.Fatalf("count = %d, want 1", g.Total.Count)
	}
	// total = 160 - 10 (the record spans issue to delivery, so the
	// stage vector — frontend included — sums to it exactly)
	if g.Total.Max != 150 {
		t.Errorf("total = %d, want 150", g.Total.Max)
	}
	// service excludes the 4-cycle frontend wait
	if g.Service.Max != 146 {
		t.Errorf("service = %d, want 146", g.Service.Max)
	}
	for _, want := range []struct {
		stage string
		max   uint64
	}{{"frontend", 4}, {"arb", 26}, {"source", 100}, {"xfer", 20}} {
		if got := stageOf(t, g, want.stage); got.Max != want.max {
			t.Errorf("stage %s = %d, want %d", want.stage, got.Max, want.max)
		}
	}
	if len(r.Slowest) != 1 || r.Slowest[0].Total != 150 {
		t.Errorf("slowest = %+v, want one txn of 150", r.Slowest)
	}
	var sum uint64
	for _, v := range r.Slowest[0].Stages {
		sum += v
	}
	if sum != r.Slowest[0].Total {
		t.Errorf("stage sum %d != total %d", sum, r.Slowest[0].Total)
	}
	if r.Slowest[0].Stages["source"] != 100 {
		t.Errorf("slowest stage vector = %v", r.Slowest[0].Stages)
	}
	if r.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", r.Dropped)
	}
}

// TestUpgradeRestart checks that a transaction re-arbitrating (upgrade
// restart path calls demandStart again) accumulates arb cycles and that
// an upgrade completing at the combined response closes with no
// source/xfer cycles.
func TestUpgradeRestart(t *testing.T) {
	c := New(Config{})
	c.demandIssued(1, 0x200, 0, 2)
	c.demandStart(1, 0x200, coherence.Read, false, 2, 10) // arb 8
	// retried: restarts as RWITM, re-arbitrates
	c.demandStart(1, 0x200, coherence.RWITM, true, 30, 44) // arb += 14
	c.demandCombine(1, 0x200, coherence.SourcePeerL2, 44)
	c.demandSourceReady(1, 0x200, 60)
	c.demandComplete(1, 0x200, 70)

	r := c.Finish(100)
	// Final kind/switch state win: RWITM with switch active.
	g := findGroup(t, r, "RWITM", "peer", true)
	if got := stageOf(t, g, "arb"); got.Max != 22 {
		t.Errorf("arb = %d, want 22 (8+14)", got.Max)
	}

	// A pure upgrade: start (no prior issue) then complete at combine.
	c2 := New(Config{})
	c2.demandStart(0, 0x300, coherence.Upgrade, false, 5, 25)
	c2.demandComplete(0, 0x300, 25)
	r2 := c2.Finish(50)
	g2 := findGroup(t, r2, "UPGRADE", "none", false)
	if g2.Total.Max != 20 {
		t.Errorf("upgrade total = %d, want 20", g2.Total.Max)
	}
	if got := stageOf(t, g2, "xfer"); got.Max != 0 {
		t.Errorf("upgrade xfer = %d, want 0", got.Max)
	}
}

// TestWriteBackLifecycle drives a dirty write back through queue, a
// retry round, and L3 retirement.
func TestWriteBackLifecycle(t *testing.T) {
	c := New(Config{})
	c.wbQueued(2, 0x400, coherence.DirtyWB, false, 100)
	c.wbIssued(2, 0x400, 110, 130) // queue 10, arb 20
	c.wbRetry(2, 0x400, 130)
	c.wbIssued(2, 0x400, 180, 200) // retry 50, arb += 20
	c.wbToL3(2, 0x400, 200)
	c.wbRetired(0x400, 260) // wb_l3 = 60

	r := c.Finish(300)
	g := findGroup(t, r, "DIRTY_WB", "to-l3", false)
	if g.Total.Max != 160 {
		t.Errorf("wb total = %d, want 160", g.Total.Max)
	}
	for _, want := range []struct {
		stage string
		max   uint64
	}{{"wb_queue", 10}, {"arb", 40}, {"wb_retry", 50}, {"wb_l3", 60}} {
		if got := stageOf(t, g, want.stage); got.Max != want.max {
			t.Errorf("stage %s = %d, want %d", want.stage, got.Max, want.max)
		}
	}
}

// TestWriteBackShortPaths covers squash, snarf and cancel dispositions.
func TestWriteBackShortPaths(t *testing.T) {
	c := New(Config{})
	c.wbQueued(0, 1, coherence.CleanWB, false, 0)
	c.wbIssued(0, 1, 5, 15)
	c.wbDone(0, 1, OutWBSquashL3, 15)

	c.wbQueued(1, 2, coherence.DirtyWB, true, 0)
	c.wbIssued(1, 2, 3, 13)
	c.wbDone(1, 2, OutWBSnarf, 13)

	c.wbQueued(2, 3, coherence.DirtyWB, false, 0)
	c.wbCancelled(2, 3, 7)

	r := c.Finish(20)
	if g := findGroup(t, r, "CLEAN_WB", "squash-l3", false); g.Total.Max != 15 {
		t.Errorf("squash total = %d, want 15", g.Total.Max)
	}
	if g := findGroup(t, r, "DIRTY_WB", "snarf", true); g.Total.Max != 13 {
		t.Errorf("snarf total = %d, want 13", g.Total.Max)
	}
	g := findGroup(t, r, "DIRTY_WB", "cancelled", false)
	if g.Total.Max != 7 {
		t.Errorf("cancel total = %d, want 7", g.Total.Max)
	}
	if got := stageOf(t, g, "wb_queue"); got.Max != 7 {
		t.Errorf("cancel wb_queue = %d, want 7", got.Max)
	}
}

// TestRetireFIFO checks two same-key write backs retire in order.
func TestRetireFIFO(t *testing.T) {
	c := New(Config{})
	c.wbQueued(0, 9, coherence.CleanWB, false, 0)
	c.wbIssued(0, 9, 0, 10)
	c.wbToL3(0, 9, 10)
	c.wbQueued(1, 9, coherence.CleanWB, false, 0)
	c.wbIssued(1, 9, 0, 20)
	c.wbToL3(1, 9, 20)
	c.wbRetired(9, 30) // first: l3 stage 20
	c.wbRetired(9, 50) // second: l3 stage 30
	c.wbRetired(9, 60) // spurious: must be a no-op

	r := c.Finish(100)
	g := findGroup(t, r, "CLEAN_WB", "to-l3", false)
	if g.Total.Count != 2 {
		t.Fatalf("count = %d, want 2", g.Total.Count)
	}
	if got := stageOf(t, g, "wb_l3"); got.Max != 30 {
		t.Errorf("wb_l3 max = %d, want 30", got.Max)
	}
}

// TestMissingRecordsAreNoOps: hooks for transactions the collector
// never saw open must be silently ignored.
func TestMissingRecordsAreNoOps(t *testing.T) {
	c := New(Config{})
	c.demandCombine(0, 1, coherence.SourceL3, 10)
	c.demandSourceReady(0, 1, 20)
	c.demandComplete(0, 1, 30)
	c.wbIssued(0, 2, 5, 10)
	c.wbRetry(0, 2, 10)
	c.wbDone(0, 2, OutWBSnarf, 10)
	c.wbCancelled(0, 2, 10)
	c.wbToL3(0, 2, 10)
	c.wbRetired(2, 20)
	r := c.Finish(50)
	if len(r.Groups) != 0 || len(r.Slowest) != 0 {
		t.Errorf("expected empty report, got %+v", r)
	}
}

// TestTopKReservoir fills past capacity and checks the K largest are
// retained in descending order.
func TestTopKReservoir(t *testing.T) {
	c := New(Config{TopK: 3})
	for i := uint64(1); i <= 10; i++ {
		key := 0x1000 + i
		c.demandStart(0, key, coherence.Read, false, 0, config.Cycles(i))
		c.demandCombine(0, key, coherence.SourceMemory, config.Cycles(i))
		c.demandComplete(0, key, config.Cycles(10*i))
	}
	r := c.Finish(1000)
	if len(r.Slowest) != 3 {
		t.Fatalf("slowest len = %d, want 3", len(r.Slowest))
	}
	for i, want := range []uint64{100, 90, 80} {
		if r.Slowest[i].Total != want {
			t.Errorf("slowest[%d] = %d, want %d", i, r.Slowest[i].Total, want)
		}
	}
}

// TestWindows checks interval binning: transactions land in the window
// of their completion cycle and the final partial window is emitted.
func TestWindows(t *testing.T) {
	c := New(Config{Interval: 100})
	complete := func(key uint64, start, end config.Cycles) {
		c.Tick(end)
		c.demandStart(0, key, coherence.Read, false, start, start)
		c.demandCombine(0, key, coherence.SourceL3, start)
		c.demandComplete(0, key, end)
	}
	complete(1, 10, 50)   // window 0, latency 40
	complete(2, 60, 120)  // window 1, latency 60
	complete(3, 130, 250) // window 2, latency 120

	r := c.Finish(250)
	if len(r.Windows) != 3 {
		t.Fatalf("windows = %d, want 3: %+v", len(r.Windows), r.Windows)
	}
	for i, want := range []uint64{40, 60, 120} {
		w := r.Windows[i]
		if w.Demand.Count != 1 || w.Demand.Max != want {
			t.Errorf("window %d = %+v, want one demand sample of %d", i, w, want)
		}
	}
	if r.Windows[2].End != 250 {
		t.Errorf("final window end = %d, want 250", r.Windows[2].End)
	}
}

// TestDroppedCount: opening a second record under a live key counts a
// drop (indicates an unhooked close path).
func TestDroppedCount(t *testing.T) {
	c := New(Config{})
	c.demandIssued(0, 7, 0, 1)
	c.demandIssued(0, 7, 2, 3) // supersedes the first
	c.demandStart(0, 7, coherence.Read, false, 3, 5)
	c.demandCombine(0, 7, coherence.SourceL3, 5)
	c.demandComplete(0, 7, 9)
	r := c.Finish(20)
	if r.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", r.Dropped)
	}
}

// TestReportJSONRoundTrip: the report survives marshal/unmarshal (the
// cmpsim -lat-out → cmpreport contract).
func TestReportJSONRoundTrip(t *testing.T) {
	c := New(Config{})
	c.demandIssued(0, 1, 0, 2)
	c.demandStart(0, 1, coherence.Read, true, 2, 12)
	c.demandCombine(0, 1, coherence.SourcePeerL2, 12)
	c.demandSourceReady(0, 1, 40)
	c.demandComplete(0, 1, 55)
	run := RunLatency{Workload: "tp", Mechanism: "snarf", Outstanding: 2, Cycles: 100, Latency: c.Finish(100)}
	data, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	var back RunLatency
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Latency == nil || len(back.Latency.Groups) != 1 {
		t.Fatalf("round trip lost groups: %s", data)
	}
	g := findGroup(t, back.Latency, "READ", "peer", true)
	if g.Total.Max != 55 {
		t.Errorf("round trip total = %d, want 55", g.Total.Max)
	}
	tbl, ratios := InterventionComparison([]RunLatency{back})
	if tbl == "" {
		t.Error("empty comparison table")
	}
	_ = ratios
}

// TestRenderersSmoke: the text renderers never panic and mention each
// group.
func TestRenderersSmoke(t *testing.T) {
	c := New(Config{Interval: 50})
	c.demandStart(0, 1, coherence.Read, false, 0, 10)
	c.demandCombine(0, 1, coherence.SourceL3, 10)
	c.demandComplete(0, 1, 90)
	c.wbQueued(0, 2, coherence.DirtyWB, false, 0)
	c.wbIssued(0, 2, 10, 20)
	c.wbToL3(0, 2, 20)
	c.wbRetired(2, 80)
	r := c.Finish(120)
	for _, out := range []string{
		r.QuantileTable("q"), r.StageBreakdown("s"), r.CriticalPath("c"),
		r.StageStack("chart", 40), r.WindowTable("w"),
	} {
		if out == "" {
			t.Error("renderer produced empty output")
		}
	}
}
