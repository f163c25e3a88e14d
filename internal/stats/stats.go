// Package stats provides the counters, derived-rate helpers, histograms
// and table renderers from which every experiment artifact (the paper's
// Tables 1–5 and Figures 2–7) is produced.
package stats

import (
	"encoding/json"
	"fmt"
)

// Counter is a monotonically increasing event count.
type Counter uint64

// Inc adds one to the counter.
func (c *Counter) Inc() { *c++ }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// Percent returns 100*n/d, or 0 when d is zero.
func Percent(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// Ratio returns n/d, or 0 when d is zero.
func Ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Improvement returns the percentage runtime improvement of new over
// base: positive when new is faster. A zero base yields 0.
func Improvement(baseCycles, newCycles uint64) float64 {
	if baseCycles == 0 {
		return 0
	}
	return 100 * (float64(baseCycles) - float64(newCycles)) / float64(baseCycles)
}

// Reduction returns the percentage decrease from base to new (positive
// when new is smaller). A zero base yields 0.
func Reduction(base, new uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(base) - float64(new)) / float64(base)
}

// Normalized returns new/base, or 0 when base is zero. It is the y-axis
// of the paper's Figures 4 and 6 (runtime normalized to the 512-entry
// configuration).
func Normalized(base, new uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(new) / float64(base)
}

// Histogram accumulates integer samples into power-of-two buckets:
// bucket i holds samples in [2^(i-1), 2^i) with bucket 0 holding zero.
// It is used for write-back re-reference counts (the paper observes
// Trade2 lines re-referenced >300 times vs <20 for CPW2).
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	idx := 0
	for x := v; x > 0; x >>= 1 {
		idx++
	}
	for len(h.buckets) <= idx {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// CountAtLeast returns how many samples were >= v.
func (h *Histogram) CountAtLeast(v uint64) uint64 {
	var total uint64
	lo := uint64(1)
	for i, c := range h.buckets {
		if i == 0 {
			if v == 0 {
				total += c
			}
			continue
		}
		// bucket i spans [2^(i-1), 2^i)
		hi := lo * 2
		switch {
		case lo >= v:
			total += c
		case hi <= v:
			// entirely below threshold
		default:
			// straddling bucket: apportion conservatively as included,
			// since exact per-sample data is not retained.
			total += c
		}
		lo = hi
	}
	return total
}

// Merge folds other's samples into h, as if every sample observed by
// other had been observed by h. The result is independent of merge
// order because buckets, counts and sums are all additive and max is
// commutative — which is what lets per-shard histograms combine into a
// deterministic whole.
func (h *Histogram) Merge(other *Histogram) {
	for len(h.buckets) < len(other.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Buckets returns a copy of the bucket counts; bucket 0 counts zero
// samples and bucket i>0 counts samples in [2^(i-1), 2^i).
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// Reset empties the histogram, keeping the bucket storage for reuse
// (windowed collectors reset once per interval without reallocating).
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.sum, h.max = 0, 0, 0
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) of the
// observed samples. The estimate locates the log bucket holding the
// ceil(q*count)-th smallest sample and interpolates linearly inside its
// [2^(i-1), 2^i) range; within the highest populated bucket it
// interpolates toward the exact recorded maximum instead of the bucket's
// upper edge, so Quantile(1) == Max. Zero samples yield exactly 0. An
// empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based: the smallest r with r >= q*count.
	rank := q * float64(h.count)
	if rank < 1 {
		rank = 1
	}
	// Highest populated bucket: its upper edge is clamped to the max.
	top := 0
	for i, c := range h.buckets {
		if c > 0 {
			top = i
		}
	}
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		if i == 0 {
			return 0 // bucket 0 holds exact zeros
		}
		lo := float64(uint64(1) << (i - 1))
		hi := lo * 2
		if i == top {
			hi = float64(h.max)
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - cum) / float64(c)
		return lo + frac*(hi-lo)
	}
	return float64(h.max)
}

// Summary is the fixed quantile digest reports are built from.
type Summary struct {
	Count uint64
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
	Max   uint64
}

// Summary returns the p50/p90/p99/max digest of the histogram.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.max,
	}
}

// String renders the histogram compactly for reports.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f max=%d", h.count, h.Mean(), h.max)
}

// histogramJSON is the stable wire form of a Histogram; Buckets[0]
// counts zero samples and Buckets[i>0] samples in [2^(i-1), 2^i). The
// P50/P90/P99 fields are derived (recomputed on load, ignored by
// UnmarshalJSON) so exported histograms are useful without
// reimplementing the bucket interpolation.
type histogramJSON struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Mean    float64
	P50     float64
	P90     float64
	P99     float64
	Buckets []uint64
}

// MarshalJSON exports the histogram with stable field names, including
// the derived p50/p90/p99 quantile estimates.
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		Count: h.count, Sum: h.sum, Max: h.max, Mean: h.Mean(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		Buckets: h.Buckets(),
	})
}

// UnmarshalJSON reconstructs a histogram from its MarshalJSON form. The
// derived fields (Mean, P50/P90/P99) are recomputed from the bucket
// counts, not trusted from the input.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.buckets = w.Buckets
	h.count, h.sum, h.max = w.Count, w.Sum, w.Max
	return nil
}
