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
// The experiment harness that regenerates every table and figure of the
// paper's evaluation lives in cmd/cmpbench; see EXPERIMENTS.md for the
// paper-versus-measured record.
package cmpcache

import (
	"cmpcache/internal/audit"
	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
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

// ShardingStats is the round-coordinator record in Results.Sharding:
// how many rounds the event loop ran, how many ran a shard phase, and
// why each shard-phase horizon was limited (next global event, ring
// credit, or observability window). The counters are deterministic for
// a given run and its attachments, and stay out of Results JSON.
type ShardingStats = system.ShardingStats

// WorkloadProfile describes a synthetic workload; see
// internal/workload.Profile for the region mixture model.
type WorkloadProfile = workload.Profile

// DefaultConfig returns the paper's Table 3 system with the baseline
// write-back policy and six outstanding misses per thread.
func DefaultConfig() Config { return config.Default() }

// Run simulates tr on a system configured by cfg and returns the
// complete statistics. It is deterministic: identical inputs yield
// identical results.
func Run(cfg Config, tr *Trace) (*Results, error) {
	s, err := system.New(cfg, tr)
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
// carries it after a RunWithProbe.
type MetricsSeries = metrics.Series

// NewMetricsProbe returns a probe sampling at cfg.Interval cycles
// (<= 0 selects the paper's 1M-cycle retry window).
func NewMetricsProbe(cfg MetricsConfig) *MetricsProbe { return metrics.NewProbe(cfg) }

// RunWithProbe simulates tr with p attached: the returned Results carry
// p's completed interval series in Results.Metrics, and any trace
// writer set on p receives the structured event stream. The simulated
// outcome is identical to Run — the probe is observation-only.
func RunWithProbe(cfg Config, tr *Trace, p *MetricsProbe) (*Results, error) {
	s, err := system.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	s.Attach(p)
	return s.Run(), nil
}

// Auditor is the shadow invariant checker of internal/audit: attached
// to a run, it verifies single-writer coherence, dirty-line
// conservation, squash soundness and resource-credit conservation on
// every sweep and at end-of-run drain, without perturbing the
// simulation.
type Auditor = audit.Auditor

// AuditConfig parameterizes an Auditor.
type AuditConfig = audit.Config

// AuditViolation is one invariant failure an Auditor recorded.
type AuditViolation = audit.Violation

// NewAuditor returns an unattached invariant checker.
func NewAuditor(cfg AuditConfig) *Auditor { return audit.New(cfg) }

// RunAudited simulates tr with a attached as a shadow invariant
// checker. The simulated outcome is identical to Run — the auditor is
// observation-only; inspect a.Ok(), a.Violations() or a.Summary()
// afterward.
func RunAudited(cfg Config, tr *Trace, a *Auditor) (*Results, error) {
	s, err := system.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	s.AttachAuditor(a)
	return s.Run(), nil
}

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

// RunOptions bundles the observation-only attachments a run can carry;
// any subset (including none) may be set, and all compose.
type RunOptions struct {
	Probe   *MetricsProbe
	Auditor *Auditor
	Latency *LatencyCollector
}

// attach installs every attachment set in opts on s.
func (opts RunOptions) attach(s *system.System) {
	if opts.Probe != nil {
		s.Attach(opts.Probe)
	}
	if opts.Auditor != nil {
		s.AttachAuditor(opts.Auditor)
	}
	if opts.Latency != nil {
		s.AttachLatency(opts.Latency)
	}
}

// RunWith simulates tr with every attachment in opts installed. The
// simulated outcome is identical to Run — all attachments are
// observation-only; Results.Metrics and Results.Latency carry the probe
// series and latency report, and the auditor is inspected afterward via
// its own methods.
func RunWith(cfg Config, tr *Trace, opts RunOptions) (*Results, error) {
	s, err := system.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	opts.attach(s)
	return s.Run(), nil
}

// RunSourceWith is RunWith over a streaming trace source: thread feeds
// pull chunked per-thread iterators, so replay memory is bounded by the
// source's chunk size rather than the trace length. A completed run is
// bit-identical to RunWith over the equivalent in-memory trace.
func RunSourceWith(cfg Config, src TraceSource, opts RunOptions) (*Results, error) {
	s, err := system.NewStream(cfg, src)
	if err != nil {
		return nil, err
	}
	opts.attach(s)
	return s.Run(), nil
}

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
