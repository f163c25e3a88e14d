package system

import (
	"cmpcache/internal/audit"
	"cmpcache/internal/metrics"
	"cmpcache/internal/observe"
)

// attach installs obs as this run's observers and binds the ones that
// read the chip: a metrics probe gets the counter sampler, an auditor
// its read-only view. Every observer then receives the same events
// (emit, and the barrier's replay of shard logs) and window ticks.
func (s *System) attach(obs []observe.Observer) {
	s.obs = obs
	for _, o := range obs {
		switch o := o.(type) {
		case *metrics.Probe:
			o.Bind(s.sampleMetrics)
		case *audit.Auditor:
			o.Bind(audit.View{
				Cfg:        &s.cfg,
				L2s:        s.l2s,
				L3:         s.l3,
				WBInFlight: func(idx int) bool { return s.wbInFlight[idx] },
				Counters: func() audit.Counters {
					return audit.Counters{
						SnarfArbitrated: s.collector.SnarfArbitrated(),
						WBSnarfed:       s.wbSnarfed,
						SnarfFallbacks:  s.snarfFallbacks,
					}
				},
			})
		}
	}
}

// emit hands e to every observer. Hook sites check len(s.obs) > 0
// first, so a run without observers builds no events.
func (s *System) emit(e observe.Event) {
	for _, o := range s.obs {
		o.Observe(e)
	}
}

// sampleMetrics copies the system's cumulative counters and occupancy
// gauges into snap. The probe differences consecutive snapshots, so
// everything here is a plain read — no counter is reset, and the retry
// switch is peeked without advancing its window.
func (s *System) sampleMetrics(snap *metrics.Snapshot) {
	snap.Retries = s.collector.Retries()
	snap.WBRetried = s.wbRetried
	snap.WBIssued = s.wbTxns
	snap.DemandTxns = s.demandTxns
	snap.FillsPeer = s.fillsFromPeer
	snap.FillsL3 = s.fillsFromL3
	snap.FillsMem = s.fillsFromMem
	snap.MemReads = s.mem.Reads()
	snap.MemWrites = s.mem.Writes()
	snap.AddrBusy = s.ring.AddressBusyCycles()
	snap.DataBusy = s.ring.DataBusyCycles()
	snap.SwitchActive = s.rswitch.ActiveNow()
	snap.L3QueueDepth = s.l3.QueueInUse()
	snap.L3QueuePeak = s.l3.TakeQueueWindowPeak()
	for _, c := range s.l2s {
		st := c.StatsSnapshot()
		snap.SnarfOffers += st.SnarfOffers
		snap.SnarfAccepts += st.SnarfAccepts
		snap.SnarfInstall += st.SnarfInstalls
		snap.MSHROccupancy += c.MSHRCount()
		snap.WBQueueOccupancy += c.WBQueueLen()
		if w := c.WBHT(); w != nil {
			snap.WBHTConsults += w.Consults()
			snap.WBHTHits += w.Hits()
			snap.WBHTCorrect += w.Correct()
			snap.WBHTWrong += w.Wrong()
		}
	}
}

// releaseL3Token returns one L3 incoming-queue token and tells the
// observers, keeping the auditor's credit ledger in step. Every release
// in the system goes through here.
func (s *System) releaseL3Token() {
	s.l3.ReleaseToken()
	if len(s.obs) > 0 {
		s.emit(observe.Event{Kind: observe.TokenReleased, At: s.engine.Now()})
	}
}
