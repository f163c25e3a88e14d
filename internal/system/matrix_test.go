package system

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"cmpcache/internal/audit"
	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/observe"
	"cmpcache/internal/trace"
	"cmpcache/internal/txlat"
	"cmpcache/internal/workload"
)

// parallelTrace synthesizes a deterministic tp-profile workload sized
// for the matrix: enough cross-L2 sharing and write backs to
// exercise every bus path, small enough to run dozens of times.
func parallelTrace(t *testing.T, threads, refs int) *trace.Trace {
	t.Helper()
	p, err := workload.ByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	p.Threads = threads
	p.RefsPerThread = refs
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// matrixRun executes one attachments cell and returns every observable
// byte the run produced: the marshalled Results (which carry the probe
// series and latency report), the same Results without those two, the
// probe's event trace, and the auditor's verdict. The "recorder" cell
// is "all" plus a test-only recorder observer.
type matrixOut struct {
	results  []byte
	core     []byte // results without Metrics and Latency
	trace    []byte
	auditOK  bool
	auditSum string
	sweeps   uint64
	kinds    [observe.NumKinds]uint64 // events the recorder received
}

// recorder is an Observer the system was never written for: it only
// counts the events it receives, by kind.
type recorder struct {
	kinds [observe.NumKinds]uint64
}

func (r *recorder) Observe(e observe.Event) { r.kinds[e.Kind]++ }
func (r *recorder) Tick(config.Cycles)      {}

func matrixRun(t *testing.T, cfg config.Config, tr *trace.Trace, attach string) matrixOut {
	t.Helper()
	var (
		obs  []observe.Observer
		tbuf bytes.Buffer
		tw   *metrics.TraceWriter
		aud  *audit.Auditor
		rec  *recorder
	)
	all := attach == "all" || attach == "recorder"
	if attach == "probe" || all {
		p := metrics.NewProbe(metrics.Config{Interval: 700})
		tw = metrics.NewTraceWriter(&tbuf, metrics.JSONL)
		p.SetTrace(tw)
		obs = append(obs, p)
	}
	if attach == "auditor" || all {
		aud = audit.New(audit.Config{Differential: true, SweepEvery: 512})
		obs = append(obs, aud)
	}
	if attach == "txlat" || all {
		obs = append(obs, txlat.New(txlat.Config{TopK: 8, Interval: 2_000}))
	}
	if attach == "recorder" {
		rec = &recorder{}
		obs = append(obs, rec)
	}
	s, err := New(cfg, tr, obs...)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if tw != nil {
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	res.Metrics, res.Latency = nil, nil
	core, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	out := matrixOut{results: data, core: core, trace: tbuf.Bytes()}
	if aud != nil {
		out.auditOK = aud.Ok()
		out.auditSum = aud.Summary()
		out.sweeps = aud.Sweeps()
	}
	if rec != nil {
		out.kinds = rec.kinds
	}
	return out
}

// TestParallelBitIdentical is the determinism matrix: for every
// scenario × attachment combination the reference run must pass the
// differential audit, and a second run must reproduce it bit for bit —
// marshalled Results (including Metrics and Latency), the
// per-transaction event trace, and the auditor's verdict and sweep
// count. The recorder cell adds an observer the system has no hook
// sites for: it must leave the Results, trace and verdict of the
// built-in cell ("all") and the detached simulation ("none") unchanged,
// and across the matrix it must receive every event kind.
func TestParallelBitIdentical(t *testing.T) {
	big := config.Default()
	big.Cores = 32 // NumL2 = 16
	// A small hierarchy under write-back pressure: evictions, retries,
	// squashes, snarfs and cancellations all occur, so the recorder
	// sees every event kind.
	small := config.Default().WithMechanism(config.Combined)
	small.L2SliceKB, small.L3SliceMB, small.L3QueueEntries = 16, 1, 2

	type scenario struct {
		name    string
		cfg     config.Config
		tr      *trace.Trace
		attachs []string
	}
	all := []string{"none", "probe", "auditor", "txlat", "all", "recorder"}
	scenarios := []scenario{
		// Full attachment sweep on the paper chip: one scenario per
		// mechanism (the ablation grid), sharing one tp trace.
		{"default-baseline", config.Default(), parallelTrace(t, 16, 400), []string{"none", "all"}},
		{"default-wbht", config.Default().WithMechanism(config.WBHT), parallelTrace(t, 16, 400), []string{"none", "all"}},
		{"default-snarf", config.Default().WithMechanism(config.Snarf), parallelTrace(t, 16, 400), []string{"none", "all"}},
		{"default-combined", config.Default().WithMechanism(config.Combined), parallelTrace(t, 16, 400), all},
		// Big chip: 16 L2s.
		{"big-combined", big.WithMechanism(config.Combined), parallelTrace(t, 64, 120), all},
		{"small-combined", small, parallelTrace(t, 16, 400), []string{"none", "all", "recorder"}},
	}

	var kinds [observe.NumKinds]uint64
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			refs := map[string]matrixOut{}
			for _, attach := range sc.attachs {
				ref := matrixRun(t, sc.cfg, sc.tr, attach)
				refs[attach] = ref
				if attach == "auditor" || attach == "all" {
					if !ref.auditOK {
						t.Fatalf("%s: reference run failed audit:\n%s", attach, ref.auditSum)
					}
					if ref.sweeps == 0 {
						t.Fatalf("%s: reference run swept 0 times; matrix would not exercise the auditor", attach)
					}
				}
				got := matrixRun(t, sc.cfg, sc.tr, attach)
				if !bytes.Equal(got.results, ref.results) {
					t.Errorf("%s: rerun Results diverged from reference at %s",
						attach, firstDiff(ref.results, got.results))
				}
				if !bytes.Equal(got.trace, ref.trace) {
					t.Errorf("%s: rerun event trace diverged from reference at %s",
						attach, firstDiff(ref.trace, got.trace))
				}
				if got.auditOK != ref.auditOK || got.auditSum != ref.auditSum || got.sweeps != ref.sweeps {
					t.Errorf("%s: rerun audit verdict diverged: ok=%v/%v sweeps=%d/%d\nreference: %s\ngot:       %s",
						attach, ref.auditOK, got.auditOK, ref.sweeps, got.sweeps, ref.auditSum, got.auditSum)
				}
			}
			rec, ok := refs["recorder"]
			if !ok {
				return
			}
			builtin, detached := refs["all"], refs["none"]
			if !bytes.Equal(rec.results, builtin.results) {
				t.Errorf("recorder: Results diverged from the built-in cell at %s", firstDiff(builtin.results, rec.results))
			}
			if !bytes.Equal(rec.core, detached.core) {
				t.Errorf("recorder: simulation diverged from the detached cell at %s", firstDiff(detached.core, rec.core))
			}
			if !bytes.Equal(rec.trace, builtin.trace) {
				t.Errorf("recorder: event trace diverged from the built-in cell at %s", firstDiff(builtin.trace, rec.trace))
			}
			if rec.auditOK != builtin.auditOK || rec.auditSum != builtin.auditSum || rec.sweeps != builtin.sweeps {
				t.Errorf("recorder: audit verdict diverged from the built-in cell:\nbuilt-in: %s\nrecorder: %s",
					builtin.auditSum, rec.auditSum)
			}
			for k, n := range rec.kinds {
				kinds[k] += n
			}
		})
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("recorder never received event kind %d (events by kind: %v)", k, kinds)
		}
	}
}

// firstDiff renders the first divergent window of two byte slices.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hi := i-40, i+40
			if lo < 0 {
				lo = 0
			}
			clip := func(s []byte) []byte {
				if hi < len(s) {
					return s[lo:hi]
				}
				return s[lo:]
			}
			return fmt.Sprintf("byte %d: %q vs %q", i, clip(a), clip(b))
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
