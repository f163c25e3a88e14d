package cmpcache_test

import (
	"testing"

	"cmpcache"
)

// Pins for the throughput artifact (BenchmarkSimulatorThroughput's
// run: trade2 at benchRefs references per thread, default config).
// The event count is a property of the simulated model, so it moves
// only with a change that means to alter behaviour; the allocation
// ceiling holds the zero-cost claim for detached observers, whose hook
// sites are length checks on this path. Speed is not pinned here: it
// is compared base-vs-head on one host by CI's bench-ab job.
const (
	throughputEvents    = 198660
	throughputMaxAllocs = 869
)

func TestThroughputPinned(t *testing.T) {
	tr, err := cmpcache.GenerateWorkloadSized("trade2", benchRefs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cmpcache.DefaultConfig()
	res, err := cmpcache.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsFired != throughputEvents {
		t.Errorf("throughput run fired %d events, pinned %d", res.EventsFired, throughputEvents)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := cmpcache.Run(cfg, tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > throughputMaxAllocs {
		t.Errorf("throughput run: %.0f allocs/op, ceiling %d", allocs, throughputMaxAllocs)
	}
	t.Logf("%d events, %.0f allocs/op", res.EventsFired, allocs)
}
