package system

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"cmpcache/internal/audit"
	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/trace"
	"cmpcache/internal/txlat"
	"cmpcache/internal/workload"
)

// parallelTrace synthesizes a deterministic tp-profile workload sized
// for the matrix: enough cross-shard sharing and write backs to
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
// series and latency report), the probe's event trace, and the
// auditor's verdict. prep, when non-nil, runs on the built system
// before anything is attached.
type matrixOut struct {
	results  []byte
	trace    []byte
	auditOK  bool
	auditSum string
	sweeps   uint64
}

func matrixRun(t *testing.T, cfg config.Config, tr *trace.Trace, attach string, prep func(*System)) matrixOut {
	t.Helper()
	s, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(s)
	}
	var (
		tbuf bytes.Buffer
		aud  *audit.Auditor
	)
	withProbe := attach == "probe" || attach == "all"
	withAudit := attach == "auditor" || attach == "all"
	withLat := attach == "txlat" || attach == "all"
	var tw *metrics.TraceWriter
	if withProbe {
		p := metrics.NewProbe(metrics.Config{Interval: 700})
		tw = metrics.NewTraceWriter(&tbuf, metrics.JSONL)
		p.SetTrace(tw)
		s.Attach(p)
	}
	if withAudit {
		aud = audit.New(audit.Config{Differential: true, SweepEvery: 512})
		s.AttachAuditor(aud)
	}
	if withLat {
		s.AttachLatency(txlat.New(txlat.Config{TopK: 8, Interval: 2_000}))
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
	out := matrixOut{results: data, trace: tbuf.Bytes()}
	if aud != nil {
		out.auditOK = aud.Ok()
		out.auditSum = aud.Summary()
		out.sweeps = aud.Sweeps()
	}
	return out
}

// TestParallelBitIdentical is the determinism matrix: for every
// scenario × attachment combination the reference run must pass the
// differential audit, and a run configured through the deprecated
// SetWorkers shim at -1, 0, 1 and 4 must reproduce it bit for bit —
// marshalled Results (including Metrics and Latency), the
// per-transaction event trace, and the auditor's verdict and sweep
// count.
func TestParallelBitIdentical(t *testing.T) {
	big := config.Default()
	big.Cores = 32 // NumL2 = 16 shards

	type scenario struct {
		name    string
		cfg     config.Config
		tr      *trace.Trace
		attachs []string
	}
	all := []string{"none", "probe", "auditor", "txlat", "all"}
	scenarios := []scenario{
		// Full attachment sweep on the paper chip: one scenario per
		// mechanism (the ablation grid), sharing one tp trace.
		{"default-baseline", config.Default(), parallelTrace(t, 16, 400), []string{"none", "all"}},
		{"default-wbht", config.Default().WithMechanism(config.WBHT), parallelTrace(t, 16, 400), []string{"none", "all"}},
		{"default-snarf", config.Default().WithMechanism(config.Snarf), parallelTrace(t, 16, 400), []string{"none", "all"}},
		{"default-combined", config.Default().WithMechanism(config.Combined), parallelTrace(t, 16, 400), all},
		// Big chip: 16 shards.
		{"big-combined", big.WithMechanism(config.Combined), parallelTrace(t, 64, 120), all},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, attach := range sc.attachs {
				ref := matrixRun(t, sc.cfg, sc.tr, attach, nil)
				if attach == "auditor" || attach == "all" {
					if !ref.auditOK {
						t.Fatalf("%s: reference run failed audit:\n%s", attach, ref.auditSum)
					}
					if ref.sweeps == 0 {
						t.Fatalf("%s: reference run swept 0 times; matrix would not exercise the auditor", attach)
					}
				}
				for _, w := range []int{-1, 0, 1, 4} {
					got := matrixRun(t, sc.cfg, sc.tr, attach, func(s *System) { s.SetWorkers(w) })
					if !bytes.Equal(got.results, ref.results) {
						t.Errorf("%s SetWorkers(%d): Results diverged from reference at %s",
							attach, w, firstDiff(ref.results, got.results))
					}
					if !bytes.Equal(got.trace, ref.trace) {
						t.Errorf("%s SetWorkers(%d): event trace diverged from reference at %s",
							attach, w, firstDiff(ref.trace, got.trace))
					}
					if got.auditOK != ref.auditOK || got.auditSum != ref.auditSum || got.sweeps != ref.sweeps {
						t.Errorf("%s SetWorkers(%d): audit verdict diverged: ok=%v/%v sweeps=%d/%d\nreference: %s\ngot:       %s",
							attach, w, ref.auditOK, got.auditOK, ref.sweeps, got.sweeps, ref.auditSum, got.auditSum)
					}
				}
			}
		})
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
