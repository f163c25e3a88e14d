package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cmpcache"
	"cmpcache/internal/experiments"
)

// The -bench-json mode measures every evaluation artifact at benchmark
// scale (the bench_test.go grid: 4000 references per thread, -quick
// sweeps) and records wall time, allocation count and event throughput
// into a tracked JSON file. Runs accumulate under distinct labels, so
// the checked-in BENCH_core.json can hold a pre-optimization baseline
// next to the current measurement:
//
//	go run ./cmd/cmpbench -bench-json BENCH_core.json -bench-label current
//
// Because every simulation is deterministic, the events count per
// artifact is a property of the workload grid, not of the machine; only
// ns_per_op, allocs_per_op and events_per_sec vary between runs.

// benchScaleRefs matches bench_test.go's benchRefs so ns_per_op here is
// directly comparable to `go test -bench` output.
const benchScaleRefs = 4000

type artifactMeasurement struct {
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type benchRun struct {
	Label     string                         `json:"label"`
	Commit    string                         `json:"commit,omitempty"`
	Date      string                         `json:"date,omitempty"`
	Go        string                         `json:"go"`
	CPUs      int                            `json:"cpus"`
	Note      string                         `json:"note,omitempty"`
	Artifacts map[string]artifactMeasurement `json:"artifacts"`
}

type benchFile struct {
	Schema string     `json:"schema"`
	Note   string     `json:"note,omitempty"`
	Runs   []benchRun `json:"runs"`
}

// runBenchJSON measures all artifacts and merges the run into path,
// replacing any existing run with the same label.
func runBenchJSON(path, label string) error {
	run := benchRun{
		Label:     label,
		Date:      time.Now().UTC().Format("2006-01-02"),
		Go:        runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Artifacts: make(map[string]artifactMeasurement),
	}

	names := append([]string{}, experiments.Names...)
	for _, name := range names {
		if name == "summary" {
			continue // renders from the table1/table5 cache; no fresh runs
		}
		m, err := measureArtifact(name)
		if err != nil {
			return err
		}
		run.Artifacts[name] = m
		printMeasurement(name, m)
	}
	for _, a := range []struct {
		name    string
		measure func() (artifactMeasurement, error)
	}{
		{"throughput", measureThroughput},
		{"bigchip", measureBigChip},
	} {
		m, err := a.measure()
		if err != nil {
			return err
		}
		run.Artifacts[a.name] = m
		printMeasurement(a.name, m)
	}

	file := benchFile{Schema: "cmpcache-bench/v1"}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	replaced := false
	for i := range file.Runs {
		if file.Runs[i].Label == label {
			run.Commit, run.Note = file.Runs[i].Commit, file.Runs[i].Note
			file.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		file.Runs = append(file.Runs, run)
	}

	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// runBenchCheck is the CI regression gate: it re-measures the raw
// simulator throughput artifact (metrics and tracing disabled — the
// zero-overhead configuration) and compares it against the run recorded
// under label in path. It fails when the deterministic event count
// drifts, when allocations exceed the recorded count (the observability
// layer must be free when disabled), or when events/sec drops more than
// 5% below the recorded baseline. Three measurements are taken and the
// best of each metric kept, damping scheduler noise.
func runBenchCheck(path, label string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file benchFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var want artifactMeasurement
	found := false
	for i := range file.Runs {
		if file.Runs[i].Label == label {
			want, found = file.Runs[i].Artifacts["throughput"], true
		}
	}
	if !found {
		return fmt.Errorf("%s: no run labelled %q", path, label)
	}

	var events uint64
	minAllocs, bestRate := ^uint64(0), 0.0
	for i := 0; i < 3; i++ {
		m, err := measureThroughput()
		if err != nil {
			return err
		}
		events = m.Events
		if m.AllocsPerOp < minAllocs {
			minAllocs = m.AllocsPerOp
		}
		if m.EventsPerSec > bestRate {
			bestRate = m.EventsPerSec
		}
	}
	fmt.Fprintf(os.Stderr, "bench-check: throughput %d events, %d allocs/op (recorded %d), %.0f events/s (recorded %.0f)\n",
		events, minAllocs, want.AllocsPerOp, bestRate, want.EventsPerSec)

	if events != want.Events {
		return fmt.Errorf("bench-check: deterministic event count changed: measured %d, recorded %d (regenerate with -bench-json)", events, want.Events)
	}
	if minAllocs > want.AllocsPerOp {
		return fmt.Errorf("bench-check: allocs/op regressed: measured %d, recorded %d", minAllocs, want.AllocsPerOp)
	}
	if bestRate < 0.95*want.EventsPerSec {
		return fmt.Errorf("bench-check: events/sec regressed more than 5%%: measured %.0f, recorded %.0f", bestRate, want.EventsPerSec)
	}
	return nil
}

// measureArtifact runs one experiment end to end on a fresh Runner
// (cold caches, as bench_test.go does) and reports wall time, the
// process-wide allocation delta and engine-event throughput.
func measureArtifact(name string) (artifactMeasurement, error) {
	runner := experiments.NewRunner(experiments.Options{
		RefsPerThread: benchScaleRefs,
		Quick:         true,
	})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := runner.Run(name, io.Discard); err != nil {
		return artifactMeasurement{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return measurement(elapsed, m1.Mallocs-m0.Mallocs, runner.SimEvents()), nil
}

// measureThroughput times one raw simulator run (the
// BenchmarkSimulatorThroughput workload).
func measureThroughput() (artifactMeasurement, error) {
	tr, err := cmpcache.GenerateWorkloadSized("trade2", benchScaleRefs)
	if err != nil {
		return artifactMeasurement{}, err
	}
	return timeRun(cmpcache.DefaultConfig(), tr)
}

// measureBigChip times one run of the big-core configuration: 64 cores
// (32 L2 slices, 128 threads) on a high-hit-rate tp workload — the shape
// with the most shard-phase work per bus transaction.
func measureBigChip() (artifactMeasurement, error) {
	p, err := cmpcache.WorkloadByName("tp")
	if err != nil {
		return artifactMeasurement{}, err
	}
	p.Threads = 128
	p.RefsPerThread = benchScaleRefs / 2
	tr, err := p.Generate()
	if err != nil {
		return artifactMeasurement{}, err
	}
	cfg := cmpcache.DefaultConfig()
	cfg.Cores = 64
	return timeRun(cfg, tr)
}

// timeRun executes one simulation and reports wall time, the
// process-wide allocation delta and event throughput.
func timeRun(cfg cmpcache.Config, tr *cmpcache.Trace) (artifactMeasurement, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := cmpcache.Run(cfg, tr)
	if err != nil {
		return artifactMeasurement{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return measurement(elapsed, m1.Mallocs-m0.Mallocs, res.EventsFired), nil
}

func measurement(elapsed time.Duration, allocs, events uint64) artifactMeasurement {
	return artifactMeasurement{
		NsPerOp:      elapsed.Nanoseconds(),
		AllocsPerOp:  allocs,
		Events:       events,
		EventsPerSec: float64(events) / elapsed.Seconds(),
	}
}

// printMeasurement renders one stderr progress row.
func printMeasurement(name string, m artifactMeasurement) {
	fmt.Fprintf(os.Stderr, "%-18s %12d ns/op %10d allocs/op %12.0f events/s\n",
		name, m.NsPerOp, m.AllocsPerOp, m.EventsPerSec)
}
