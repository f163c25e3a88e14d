package config

import (
	"strings"
	"testing"
)

// TestTable3Latencies pins the contention-free latency decomposition to
// the paper's Table 3 end-to-end numbers.
func TestTable3Latencies(t *testing.T) {
	c := Default()
	if got := c.L2HitLatency(); got != 20 {
		t.Errorf("L2 hit latency = %d, want 20", got)
	}
	if got := c.L2ToL2Latency(); got != 77 {
		t.Errorf("L2-to-L2 latency = %d, want 77", got)
	}
	if got := c.L3HitLatency(); got != 167 {
		t.Errorf("L3 hit latency = %d, want 167", got)
	}
	if got := c.MemLatency(); got != 431 {
		t.Errorf("memory latency = %d, want 431", got)
	}
}

// TestTable3Geometry pins the cache organization to Table 3.
func TestTable3Geometry(t *testing.T) {
	c := Default()
	if got := c.L2Bytes(); got != 4*512*1024 {
		t.Errorf("L2 capacity = %d, want 2MB", got)
	}
	if got := c.L3Bytes(); got != 4*4*1024*1024 {
		t.Errorf("L3 capacity = %d, want 16MB", got)
	}
	if c.NumL2() != 4 {
		t.Errorf("NumL2 = %d, want 4", c.NumL2())
	}
	if c.Threads() != 16 {
		t.Errorf("Threads = %d, want 16", c.Threads())
	}
	if c.ThreadsPerL2() != 4 {
		t.Errorf("ThreadsPerL2 = %d, want 4 (paper: four threads feed each L2)", c.ThreadsPerL2())
	}
	if c.L2Assoc != 8 || c.L3Assoc != 16 {
		t.Errorf("associativities = %d/%d, want 8/16", c.L2Assoc, c.L3Assoc)
	}
}

// TestWBHTDefaultsMatchPaper pins the mechanism parameters described in
// Sections 2 and 2.2.
func TestWBHTDefaultsMatchPaper(t *testing.T) {
	w := DefaultWBHT()
	if w.Entries != 32768 {
		t.Errorf("WBHT entries = %d, want 32768", w.Entries)
	}
	if w.Assoc != 16 {
		t.Errorf("WBHT assoc = %d, want 16", w.Assoc)
	}
	// Paper: 2,000 retries per 1M cycles. The configured rate must match.
	paperRate := 2000.0 / 1_000_000
	rate := float64(w.RetryThreshold) / float64(w.RetryWindow)
	if rate != paperRate {
		t.Errorf("retry switch rate = %v, want %v", rate, paperRate)
	}
	// WBHT size relative to L2: paper says ~9% of L2 size. 32K entries of
	// ~4.5B tag+LRU each vs 2MB L2 is within [5%, 12%].
	c := Default()
	frac := float64(w.Entries) / float64(c.L2Lines())
	if frac <= 0 {
		t.Errorf("degenerate WBHT/L2 ratio %v", frac)
	}
}

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default config invalid: %v", err)
	}
	for _, m := range []Mechanism{Baseline, WBHT, Snarf, Combined} {
		if err := c.WithMechanism(m).Validate(); err != nil {
			t.Fatalf("Default with %v invalid: %v", m, err)
		}
	}
}

func TestWithMechanismCombinedHalvesTables(t *testing.T) {
	c := Default().WithMechanism(Combined)
	if c.WBHT.Entries != 16384 || c.Snarf.Entries != 16384 {
		t.Fatalf("combined tables = %d/%d, want 16384/16384",
			c.WBHT.Entries, c.Snarf.Entries)
	}
	// The non-combined variants must keep full-size tables.
	if Default().WithMechanism(WBHT).WBHT.Entries != 32768 {
		t.Fatal("WithMechanism(WBHT) should not shrink the table")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"bad line size", func(c *Config) { c.LineBytes = 100 }, "LineBytes"},
		{"cores not divisible", func(c *Config) { c.CoresPerL2 = 3 }, "CoresPerL2"},
		{"zero outstanding", func(c *Config) { c.MaxOutstanding = 0 }, "MaxOutstanding"},
		{"mshr too small", func(c *Config) { c.MSHRsPerL2 = 1 }, "MSHR"},
		{"zero wb queue", func(c *Config) { c.WBQueueEntries = 0 }, "queue"},
		{"zero mem banks", func(c *Config) { c.MemBanks = 0 }, "MemBanks"},
		{"bad l2 slices", func(c *Config) { c.L2Slices = 3 }, "L2Slices"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateL2Limit: a chip may have up to MaxL2s = 64 L2 caches;
// one more is rejected with a message naming the limit.
func TestValidateL2Limit(t *testing.T) {
	c := Default()
	c.Cores = MaxL2s * c.CoresPerL2
	if c.NumL2() != 64 {
		t.Fatalf("NumL2 = %d, want 64", c.NumL2())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("64 L2s rejected: %v", err)
	}
	c.Cores += c.CoresPerL2
	err := c.Validate()
	if err == nil {
		t.Fatal("65 L2s accepted")
	}
	if !strings.Contains(err.Error(), "at most 64") {
		t.Fatalf("error %q does not name the 64-L2 limit", err)
	}
}

func TestValidateTableShapes(t *testing.T) {
	c := Default().WithMechanism(WBHT)
	c.WBHT.Entries = 1000 // 1000/16 is not a power-of-two set count
	if c.Validate() == nil {
		t.Fatal("Validate accepted non-power-of-two WBHT sets")
	}
	c = Default().WithMechanism(Snarf)
	c.Snarf.Assoc = 0
	if c.Validate() == nil {
		t.Fatal("Validate accepted zero snarf assoc")
	}
	// Table shape is irrelevant when the mechanism is off.
	c = Default()
	c.WBHT.Entries = 7
	if err := c.Validate(); err != nil {
		t.Fatalf("baseline config rejected for unused table shape: %v", err)
	}
}

func TestMechanismString(t *testing.T) {
	if Baseline.String() != "base" || WBHT.String() != "wbht" ||
		Snarf.String() != "snarf" || Combined.String() != "combined" {
		t.Fatal("unexpected mechanism names")
	}
	if Mechanism(99).String() != "Mechanism(99)" {
		t.Fatal("unknown mechanism should format numerically")
	}
}
