// Package metrics is the simulator's observability layer: an optional
// probe that turns one run's end-of-run aggregates into a per-interval
// time series, plus a structured per-transaction event trace (JSONL or
// Chrome trace_event, viewable in Perfetto). A Probe is an
// observe.Observer: it is attached by passing it to the system's
// constructor.
//
// The design contract is zero cost when disabled. A system without
// observers pays one length check per hook site and allocates nothing;
// all per-window state lives in the probe, and the system only supplies
// a sampler callback that copies its cumulative counters into a
// Snapshot. The probe differences consecutive snapshots at each window
// close, so the simulation's own hot paths carry no extra arithmetic.
//
// Sampling is driven by the system's per-event Tick, not by scheduled
// sampler events: a probe therefore never changes the event sequence,
// Results.EventsFired, or any simulated outcome. A window [start, end)
// closes just before the first event at or after end fires, so the
// sampled state is exactly the state after all events strictly before
// end — deterministic for a fixed workload, independent of wall clock.
package metrics

import (
	"cmpcache/internal/config"
	"cmpcache/internal/observe"
)

// DefaultInterval is the paper's retry-rate observation window: the
// adaptive switch's operating point is 2,000 retries per 1M cycles, so
// series sampled at this interval line up with the switch's decisions.
const DefaultInterval config.Cycles = 1_000_000

// Config parameterizes a Probe.
type Config struct {
	// Interval is the sampling window in cycles; <= 0 selects
	// DefaultInterval.
	Interval config.Cycles
}

// Snapshot is what the system's sampler fills at each window close: its
// cumulative counters (differenced against the previous window by the
// probe) and a few instantaneous gauges (reported as-is).
type Snapshot struct {
	// Cumulative counters.
	Retries      uint64 // retry combined-responses (all transaction kinds)
	WBRetried    uint64 // write-back retries
	WBIssued     uint64 // write-back bus issues (retries re-issue)
	DemandTxns   uint64 // demand bus transactions
	WBHTConsults uint64
	WBHTHits     uint64 // consults that aborted the write back
	WBHTCorrect  uint64
	WBHTWrong    uint64
	SnarfOffers  uint64
	SnarfAccepts uint64
	SnarfInstall uint64
	FillsPeer    uint64
	FillsL3      uint64
	FillsMem     uint64
	MemReads     uint64
	MemWrites    uint64
	AddrBusy     config.Cycles // address-ring busy cycles
	DataBusy     config.Cycles // data-ring busy cycles, both directions summed

	// Instantaneous gauges.
	SwitchActive     bool // retry switch state as of its last advance
	L3QueueDepth     int  // incoming-queue occupancy now
	L3QueuePeak      int  // incoming-queue peak within the window
	MSHROccupancy    int  // outstanding misses summed over L2s
	WBQueueOccupancy int  // write-back queue entries summed over L2s
}

// Sample is one closed window of the interval series. Counter fields
// are per-window deltas; gauge fields are the state at window close.
type Sample struct {
	Window int           `json:"window"` // Start / Interval
	Start  config.Cycles `json:"start"`
	End    config.Cycles `json:"end"`

	Retries      uint64 `json:"retries"`
	WBRetried    uint64 `json:"wb_retried"`
	WBIssued     uint64 `json:"wb_issued"`
	DemandTxns   uint64 `json:"demand_txns"`
	SwitchActive bool   `json:"switch_active"`

	WBHTConsults uint64 `json:"wbht_consults"`
	WBHTHits     uint64 `json:"wbht_hits"`
	WBHTCorrect  uint64 `json:"wbht_correct"`
	WBHTWrong    uint64 `json:"wbht_wrong"`

	SnarfOffers  uint64 `json:"snarf_offers"`
	SnarfAccepts uint64 `json:"snarf_accepts"`
	SnarfInstall uint64 `json:"snarf_installs"`

	AddrRingUtil float64 `json:"addr_ring_util"`
	DataRingUtil float64 `json:"data_ring_util"`

	L3QueueDepth     int `json:"l3_queue_depth"`
	L3QueuePeak      int `json:"l3_queue_peak"`
	MSHROccupancy    int `json:"mshr_occupancy"`
	WBQueueOccupancy int `json:"wb_queue_occupancy"`

	FillsPeer uint64 `json:"fills_peer"`
	FillsL3   uint64 `json:"fills_l3"`
	FillsMem  uint64 `json:"fills_mem"`
	MemReads  uint64 `json:"mem_reads"`
	MemWrites uint64 `json:"mem_writes"`
}

// Series is the complete interval time series of one run. The final
// sample may cover a partial window (End - Start < Interval); rate
// fields are normalized by the actual covered span.
type Series struct {
	Interval config.Cycles `json:"interval"`
	Samples  []Sample      `json:"samples"`
}

// Probe collects the interval series (and optionally forwards events to
// a TraceWriter) for one simulation run. A Probe is single-use and not
// safe for concurrent use — one probe per system, like the system's own
// counters.
type Probe struct {
	interval  config.Cycles
	nextClose config.Cycles
	sampler   func(*Snapshot)
	prev, cur Snapshot
	series    Series
	trace     *TraceWriter
	finished  bool
}

// NewProbe returns a probe sampling at cfg.Interval.
func NewProbe(cfg Config) *Probe {
	iv := cfg.Interval
	if iv <= 0 {
		iv = DefaultInterval
	}
	return &Probe{interval: iv, nextClose: iv, series: Series{Interval: iv}}
}

// Interval returns the sampling window length.
func (p *Probe) Interval() config.Cycles { return p.interval }

// SetTrace attaches a per-transaction event trace writer. The writer
// also receives one set of Perfetto counter events per closed window.
func (p *Probe) SetTrace(tw *TraceWriter) { p.trace = tw }

// Bind installs the system's sampler; the system calls this when the
// probe attaches.
func (p *Probe) Bind(sampler func(*Snapshot)) { p.sampler = sampler }

// Observe forwards demand combines, victims and write-back
// dispositions to the attached trace writer, if any.
func (p *Probe) Observe(e observe.Event) {
	if p.trace == nil {
		return
	}
	switch e.Kind {
	case observe.DemandCombine:
		p.trace.Demand(e.At, e.L2, e.Key, e.Txn.String(), e.Out.Source.String(), e.Out.L3Valid, e.Out.SharedElsewhere)
	case observe.Victim:
		p.trace.Victim(e.At, e.L2, e.Key, e.State.String(), e.Action.String(), e.InL3)
	case observe.WBDisposition:
		p.trace.WriteBack(e.At, e.L2, e.Key, e.WB.Kind.String(), e.Disp, e.WB.Snarfable)
	}
}

// Tick closes every window whose end the simulation clock has
// reached. Idle stretches close as zero-delta windows, so the series
// has no gaps.
func (p *Probe) Tick(now config.Cycles) {
	for now >= p.nextClose {
		p.close(p.nextClose)
	}
}

// close emits the window ending at end and arms the next one.
func (p *Probe) close(end config.Cycles) {
	p.emit(p.nextClose-p.interval, end)
	p.nextClose += p.interval
}

// emit samples the system and appends the [start, end) window.
func (p *Probe) emit(start, end config.Cycles) {
	p.cur = Snapshot{}
	if p.sampler != nil {
		p.sampler(&p.cur)
	}
	c, q := &p.cur, &p.prev
	span := float64(end - start)
	s := Sample{
		Window: int(start / p.interval),
		Start:  start,
		End:    end,

		Retries:      c.Retries - q.Retries,
		WBRetried:    c.WBRetried - q.WBRetried,
		WBIssued:     c.WBIssued - q.WBIssued,
		DemandTxns:   c.DemandTxns - q.DemandTxns,
		SwitchActive: c.SwitchActive,

		WBHTConsults: c.WBHTConsults - q.WBHTConsults,
		WBHTHits:     c.WBHTHits - q.WBHTHits,
		WBHTCorrect:  c.WBHTCorrect - q.WBHTCorrect,
		WBHTWrong:    c.WBHTWrong - q.WBHTWrong,

		SnarfOffers:  c.SnarfOffers - q.SnarfOffers,
		SnarfAccepts: c.SnarfAccepts - q.SnarfAccepts,
		SnarfInstall: c.SnarfInstall - q.SnarfInstall,

		AddrRingUtil: float64(c.AddrBusy-q.AddrBusy) / span,
		DataRingUtil: float64(c.DataBusy-q.DataBusy) / (2 * span),

		L3QueueDepth:     c.L3QueueDepth,
		L3QueuePeak:      c.L3QueuePeak,
		MSHROccupancy:    c.MSHROccupancy,
		WBQueueOccupancy: c.WBQueueOccupancy,

		FillsPeer: c.FillsPeer - q.FillsPeer,
		FillsL3:   c.FillsL3 - q.FillsL3,
		FillsMem:  c.FillsMem - q.FillsMem,
		MemReads:  c.MemReads - q.MemReads,
		MemWrites: c.MemWrites - q.MemWrites,
	}
	p.series.Samples = append(p.series.Samples, s)
	if p.trace != nil {
		p.trace.Counters(&s)
	}
	p.prev = p.cur
}

// Finish closes every remaining window up to the run's final cycle —
// including a trailing partial window when the run did not end on a
// boundary — and returns the completed series. Idempotent.
func (p *Probe) Finish(end config.Cycles) *Series {
	if !p.finished {
		p.finished = true
		p.Tick(end)
		if start := p.nextClose - p.interval; end > start {
			p.emit(start, end)
		}
	}
	return &p.series
}
