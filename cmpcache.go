// Package cmpcache is a trace-driven simulator of the chip
// multiprocessor cache hierarchy from Speight, Shafi, Zhang and
// Rajamony, "Adaptive Mechanisms and Policies for Managing Cache
// Hierarchies in Chip Multiprocessors" (ISCA 2005), together with the
// paper's two adaptive write-back management mechanisms:
//
//   - the Write Back History Table (WBHT), which suppresses clean L2
//     write backs whose lines are predicted to already reside in the L3
//     victim cache, gated by a bus-retry-rate switch; and
//   - L2-to-L2 write-back snarfing, which lets peer L2 caches absorb
//     evicted lines with demonstrated reuse, converting future L3 and
//     memory accesses into fast on-chip cache-to-cache transfers.
//
// The simulated machine matches the paper's Table 3: eight 2-way SMT
// cores, four shared sliced L2 caches behind core interface units, a
// bi-directional intrachip ring with a central snoop collector, an
// off-chip 16 MB L3 victim cache for both clean and dirty lines, and a
// memory controller (contention-free latencies 20/77/167/431 cycles).
//
// # Quick start
//
//	cfg := cmpcache.DefaultConfig()               // Table 3 baseline
//	cfg.Mechanism = cmpcache.WBHT                 // enable the history table
//	tr, _ := cmpcache.GenerateWorkload("trade2")  // synthetic commercial trace
//	res, err := cmpcache.Run(cfg, tr)
//	if err != nil { ... }
//	fmt.Println(res.Summary())
//
// Observers attach as trailing arguments and never change the outcome:
//
//	probe := cmpcache.NewMetricsProbe(cmpcache.MetricsConfig{})
//	aud := cmpcache.NewAuditor(cmpcache.AuditConfig{Differential: true})
//	res, err = cmpcache.Run(cfg, tr, probe, aud) // res.Metrics, aud.Ok()
//
// The experiment harness that regenerates every table and figure of the
// paper's evaluation lives in cmd/cmpbench; see EXPERIMENTS.md for the
// paper-versus-measured record.
package cmpcache

import (
	"cmpcache/internal/audit"
	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/observe"
	"cmpcache/internal/system"
	"cmpcache/internal/trace"
	"cmpcache/internal/txlat"
	"cmpcache/internal/workload"
)

// Config parameterizes the simulated system; see the fields of
// internal/config.Config (re-exported here as a type alias so the full
// parameter surface is available without a second import path).
type Config = config.Config

// Mechanism selects the write-back management policy under test.
type Mechanism = config.Mechanism

// The four policies evaluated in the paper.
const (
	// Baseline writes every victim back toward the L3 (which squashes
	// clean write backs it already holds).
	Baseline = config.Baseline
	// WBHT adds the Write Back History Table of Section 2.
	WBHT = config.WBHT
	// Snarf adds the L2-to-L2 write-back absorption of Section 3.
	Snarf = config.Snarf
	// Combined runs both with half-sized tables (Section 5.3).
	Combined = config.Combined
)

// Trace is a replayable memory-reference workload.
type Trace = trace.Trace

// Record is a single memory reference within a Trace.
type Record = trace.Record

// TraceSource is a streaming trace input: per-thread chunked iterators
// over a capture that is never materialized whole. The sharded on-disk
// store (OpenTraceDir) implements it with bounded memory.
type TraceSource = trace.Source

// ShardedTrace is the streaming reader over a sharded trace directory
// written by tracegen -shards (or trace.WriteSharded); see DESIGN.md
// §17.
type ShardedTrace = trace.Sharded

// IsShardedTraceDir reports whether path is a sharded trace directory.
func IsShardedTraceDir(path string) bool { return trace.IsShardedDir(path) }

// OpenTraceDir opens a sharded trace directory for streaming replay.
// Close it when done.
func OpenTraceDir(path string) (*ShardedTrace, error) { return trace.OpenSharded(path) }

// Results carries every statistic a run produces, including the derived
// metrics behind each of the paper's tables.
type Results = system.Results

// WorkloadProfile describes a synthetic workload; see
// internal/workload.Profile for the region mixture model.
type WorkloadProfile = workload.Profile

// DefaultConfig returns the paper's Table 3 system with the baseline
// write-back policy and six outstanding misses per thread.
func DefaultConfig() Config { return config.Default() }

// Observer is an observation-only attachment for a run: the metrics
// probe, the invariant auditor and the latency collector all implement
// it, and any set of them composes onto one run without changing its
// outcome; see internal/observe.
type Observer = observe.Observer

// Run simulates tr on a system configured by cfg, with obs attached,
// and returns the complete statistics. It is deterministic: identical
// inputs yield identical results, with or without observers.
// Results.Metrics and Results.Latency carry an attached probe's series
// and collector's report; an auditor is inspected afterward through its
// own methods.
func Run(cfg Config, tr *Trace, obs ...Observer) (*Results, error) {
	s, err := system.New(cfg, tr, obs...)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// RunSource is Run over a streaming trace source: thread feeds pull
// chunked per-thread iterators, so replay memory is bounded by the
// source's chunk size rather than the trace length. A completed run is
// bit-identical to Run over the equivalent in-memory trace.
func RunSource(cfg Config, src TraceSource, obs ...Observer) (*Results, error) {
	s, err := system.NewStream(cfg, src, obs...)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// MetricsProbe collects a per-interval time series (and optionally a
// per-transaction event trace) from one run; see internal/metrics.
type MetricsProbe = metrics.Probe

// MetricsConfig parameterizes a MetricsProbe.
type MetricsConfig = metrics.Config

// MetricsSeries is the interval series a probe produces; Results.Metrics
// carries it after a run with the probe attached.
type MetricsSeries = metrics.Series

// NewMetricsProbe returns a probe sampling at cfg.Interval cycles
// (<= 0 selects the paper's 1M-cycle retry window).
func NewMetricsProbe(cfg MetricsConfig) *MetricsProbe { return metrics.NewProbe(cfg) }

// Auditor is the shadow invariant checker of internal/audit: attached
// to a run, it verifies single-writer coherence, dirty-line
// conservation, squash soundness and resource-credit conservation on
// every sweep and at end-of-run drain, without perturbing the
// simulation. Inspect a.Ok(), a.Violations() or a.Summary() after the
// run.
type Auditor = audit.Auditor

// AuditConfig parameterizes an Auditor.
type AuditConfig = audit.Config

// AuditViolation is one invariant failure an Auditor recorded.
type AuditViolation = audit.Violation

// NewAuditor returns an unattached invariant checker.
func NewAuditor(cfg AuditConfig) *Auditor { return audit.New(cfg) }

// LatencyCollector is the per-transaction latency attribution layer of
// internal/txlat: attached to a run, it stamps every demand miss and
// write back at its lifecycle stages and accumulates per-stage cycles
// into quantile histograms keyed by (transaction kind × outcome ×
// mechanism state), plus a top-K slowest-transactions reservoir.
type LatencyCollector = txlat.Collector

// LatencyConfig parameterizes a LatencyCollector.
type LatencyConfig = txlat.Config

// LatencyReport is the collector's frozen output; Results.Latency
// carries it after a run with a collector attached.
type LatencyReport = txlat.Report

// RunLatencyFile is the JSON file format written by `cmpsim -lat-out`
// and consumed by cmpreport.
type RunLatencyFile = txlat.RunLatency

// NewLatencyCollector returns an unattached latency collector.
func NewLatencyCollector(cfg LatencyConfig) *LatencyCollector { return txlat.New(cfg) }

// Workloads lists the built-in synthetic commercial workloads:
// "tp", "cpw2", "notesbench" and "trade2".
func Workloads() []string { return workload.Names() }

// WorkloadByName returns the named built-in workload profile
// (case-insensitive), which the caller may adjust before generating.
func WorkloadByName(name string) (WorkloadProfile, error) {
	return workload.ByName(name)
}

// GenerateWorkload synthesizes the named built-in workload trace at its
// default length.
func GenerateWorkload(name string) (*Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate()
}

// GenerateWorkloadSized synthesizes the named workload with a specific
// per-thread reference count (larger traces reduce warm-up effects at
// the cost of simulation time).
func GenerateWorkloadSized(name string, refsPerThread int) (*Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	p.RefsPerThread = refsPerThread
	return p.Generate()
}
