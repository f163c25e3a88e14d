package system

import "cmpcache/internal/metrics"

// Attach installs p as this run's observability probe: the round
// coordinator's boundary tick drives p's sampling windows, and p's
// sampler callback reads the system's cumulative counters at each
// window close. Attach must be called before Run; Run's results then
// carry the completed interval series. Attaching a probe never perturbs
// the simulation — sampling is observation-only (see internal/metrics)
// and windows close only at round boundaries, after every event
// strictly before the window's end has fired.
func (s *System) Attach(p *metrics.Probe) {
	s.probe = p
	s.tracer = p.Trace()
	p.Bind(s.sampleMetrics)
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
