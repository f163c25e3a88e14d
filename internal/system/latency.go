package system

import "cmpcache/internal/txlat"

// AttachLatency installs c as this run's transaction-latency collector:
// the protocol commit points in the demand and write-back paths stamp
// every transaction's stage boundaries into it, and Results.Latency
// carries the finished report. Attach before Run, one collector per
// run. Like the metrics probe and the auditor, a latency collector is
// observation-only — it never perturbs the event sequence — and a
// system without one pays a single nil check per hook site. A windowed
// collector's windows close at the coordinator's round boundaries;
// shard-context hooks reach it through the barrier's deterministic
// replay, so its report is a pure function of the workload.
func (s *System) AttachLatency(c *txlat.Collector) {
	s.lat = c
}
