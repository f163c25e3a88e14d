package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// cmpserved is the daemon binary TestMain builds for serve-mix runs.
var cmpserved string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	cmpserved = filepath.Join(dir, "cmpserved")
	out, err := exec.Command("go", "build", "-o", cmpserved, "cmpcache/cmd/cmpserved").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building cmpserved: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		catalog  []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.declared) != len(c.catalog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.what, len(c.declared), len(c.catalog))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.catalog[i].name || d.Unit != c.catalog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					c.what, i, d.Name, d.Unit, c.catalog[i].name, c.catalog[i].unit)
			}
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s: metric name %q does not match %s", c.what, d.Name, metricName)
			}
		}
	}
	for _, w := range bj.Workloads {
		if _, ok := simWorkloads[w.Name]; !ok && w.Name != "serve-mix" {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}

// tinyOptions shrinks a workload so a run takes well under a second.
func tinyOptions(t *testing.T, workload string, traced bool) options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 7
	o.seconds = 0.3
	o.traced = traced
	o.server = cmpserved
	o.outDir = t.TempDir()
	o.refsPerThread = 300
	o.setupReps = 2
	o.serveRefs = refsRange(100, 400, 20)
	o.l1Entries = 4
	return o
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			declared := bj.EndToEnd
			if traced {
				declared = bj.PerLayer
			}
			w, traced := w.Name, traced
			t.Run(w+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				m, err := run(tinyOptions(t, w, traced))
				if err != nil {
					t.Fatal(err)
				}
				r, err := buildReport(m, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d: %v", r.Correct, r.Attempted, r.Failed, m.problems)
				}
				if len(r.Metrics) != len(declared) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(declared))
				}
				for _, d := range declared {
					got, ok := r.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case got.Unit != d.Unit:
						t.Errorf("metric %s: unit %q, want %q", d.Name, got.Unit, d.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, got.Value)
					}
				}
				if traced {
					rounds := r.Metrics["round.rounds"].Value
					if _, sim := simWorkloads[w]; sim != (rounds > 0) {
						t.Errorf("round.rounds = %v on %s", rounds, w)
					}
					if r.Metrics["sim.events"].Value <= 0 {
						t.Errorf("sim.events = %v, want > 0", r.Metrics["sim.events"].Value)
					}
				}
			})
		}
	}
}

func TestInjectedMismatchFails(t *testing.T) {
	for _, c := range []struct{ workload, inject string }{
		{"sim-trade2", "results-field"},
		{"replay-tp", "results-field"},
		{"serve-mix", "warm-byte"},
	} {
		t.Run(c.workload+"/"+c.inject, func(t *testing.T) {
			o := tinyOptions(t, c.workload, false)
			o.inject = c.inject
			m, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			r, err := buildReport(m, true)
			if err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Failed != 1 {
				t.Fatalf("correct %v, failed %d of %d; want exactly one failed operation", r.Correct, r.Failed, r.Attempted)
			}
			if got, want := r.Metrics["failed_frac"].Value, 1/float64(r.Attempted); got != want {
				t.Errorf("failed_frac = %v, want %v", got, want)
			}
		})
	}
}
