// Package fuzz generates seeded randomized audit campaigns: each seed
// deterministically derives a synthetic workload profile and a
// configuration corner (mechanism, snarf policy, WBHT variant,
// retry-switch threshold, queue depths, outstanding-miss limit), runs
// the simulator with the invariant auditor and reference coherence
// model attached, and reports any violations. The soak test and the
// native go-fuzz target in this package both build on RunSeed.
package fuzz

import (
	"fmt"
	"math/rand"

	"cmpcache/internal/audit"
	"cmpcache/internal/config"
	"cmpcache/internal/system"
	"cmpcache/internal/workload"
)

// RandomProfile derives a small randomized workload from r: a handful
// of regions mixing sharing scopes (the source of upgrade races, peer
// squashes and snarfs) and access patterns, sized to finish in well
// under a second while still churning every write-back path.
func RandomProfile(r *rand.Rand) workload.Profile {
	nRegions := 2 + r.Intn(3)
	regions := make([]workload.Region, 0, nRegions)
	var weight float64
	for i := 0; i < nRegions; i++ {
		reg := workload.Region{
			Name:      fmt.Sprintf("r%d", i),
			Lines:     64 << r.Intn(6), // 64..2048 lines
			Weight:    0.1 + r.Float64(),
			Pattern:   workload.Pattern(r.Intn(3)),
			Sharing:   workload.Sharing(r.Intn(3)),
			StoreFrac: 0.6 * r.Float64(),
		}
		if reg.Pattern == workload.Zipf {
			reg.ZipfTheta = 0.4 + 0.5*r.Float64()
		}
		weight += reg.Weight
		regions = append(regions, reg)
	}
	// Normalize weights so Validate's unit-sum check passes.
	for i := range regions {
		regions[i].Weight /= weight
	}
	return workload.Profile{
		Name:          "fuzz",
		Threads:       16,
		RefsPerThread: 1500 + r.Intn(2500),
		MeanGap:       1 + 8*r.Float64(),
		BurstLen:      r.Intn(12), // 0 disables bursting
		Regions:       regions,
		Seed:          r.Uint64() | 1,
	}
}

// RandomConfig derives a configuration corner from r. Cache geometry
// shrinks (16–32 KB L2 slices, 1 MB L3 slices) so short runs actually
// evict, write back, castout and retry; the policy knobs sweep the
// corners the issue calls out: snarf on/off and its insertion policy,
// the WBHT global-allocation variant, retry-switch thresholds and 1–6
// outstanding misses.
func RandomConfig(r *rand.Rand) config.Config {
	cfg := config.Default().WithMechanism(config.Mechanism(r.Intn(4)))
	cfg.L2SliceKB = 16 << r.Intn(2) // 16 or 32 KB per slice
	cfg.L3SliceMB = 1
	cfg.MaxOutstanding = 1 + r.Intn(6)
	cfg.L3QueueEntries = []int{1, 2, 4, 16}[r.Intn(4)]
	cfg.WBQueueEntries = []int{2, 8}[r.Intn(2)]
	cfg.Snarf.VictimizeShared = r.Intn(2) == 0
	cfg.Snarf.InsertMRU = r.Intn(2) == 0
	cfg.WBHT.GlobalAllocate = r.Intn(2) == 0
	cfg.WBHT.SwitchEnabled = r.Intn(4) != 0 // mostly on, as in the paper
	cfg.WBHT.RetryThreshold = []uint64{1, 5, 50}[r.Intn(3)]
	cfg.WBHT.HistoryReplacement = r.Intn(4) == 0
	return cfg
}

// RunSeed builds the seed's workload and configuration, runs it under
// the auditor (with the differential reference model) and returns the
// auditor for inspection. The run is fully deterministic in seed.
func RunSeed(seed int64) (*audit.Auditor, *system.Results, error) {
	r := rand.New(rand.NewSource(seed))
	cfg := RandomConfig(r)
	profile := RandomProfile(r)
	tr, err := profile.Generate()
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	a := audit.New(audit.Config{Differential: true, SweepEvery: 2048})
	s, err := system.New(cfg, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	s.AttachAuditor(a)
	return a, s.Run(), nil
}
