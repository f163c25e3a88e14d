package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // X-Request-Id of a serve job
	Start  int64  `json:"start_ns"`      // since the run began
	End    int64  `json:"end_ns"`
}

// tracer times calls and, while on, keeps a span for each in memory.
// It is safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// spanRef is an open span: its ID (0 when tracing is off) and start.
type spanRef struct {
	id    int
	start time.Time
}

func (t *tracer) begin(name string, parent spanRef, req string) spanRef {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return spanRef{start: now}
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent.id, Name: name, Req: req,
		Start: int64(now.Sub(t.epoch)),
	})
	return spanRef{id: len(t.spans), start: now}
}

// end closes s and returns its duration.
func (t *tracer) end(s spanRef) time.Duration {
	now := time.Now()
	if s.id != 0 {
		t.mu.Lock()
		t.spans[s.id-1].End = int64(now.Sub(t.epoch))
		t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// durations returns the duration in seconds of every recorded span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// writeSpans writes the run's spans, with the host fingerprint, to a
// JSON file under the output directory.
func writeSpans(o options, t *tracer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host     map[string]any `json:"host"`
		Workload string         `json:"workload"`
		Seed     uint64         `json:"seed"`
		Spans    []span         `json:"spans"`
	}{fingerprint(), o.workload, o.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}
