package fuzz

import "testing"

// TestAuditSoak runs a fixed-seed randomized campaign: every seed must
// complete with zero invariant violations and zero reference-model
// divergences. The CI audit-soak job runs this with -race; -short
// trims the seed list for the ordinary test run.
func TestAuditSoak(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		a, res, err := RunSeed(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !a.Ok() {
			t.Errorf("seed %d: %s", seed, a.Summary())
		}
		if res.RefsCompleted != res.RefsIssued {
			t.Errorf("seed %d: %d of %d references completed", seed, res.RefsCompleted, res.RefsIssued)
		}
		if res.ResidualMSHRs != 0 || res.ResidualWBQueued != 0 ||
			res.ResidualWBInFlight != 0 || res.ResidualL3QueueTokens != 0 {
			t.Errorf("seed %d: residuals mshr=%d wbq=%d inflight=%d tokens=%d",
				seed, res.ResidualMSHRs, res.ResidualWBQueued,
				res.ResidualWBInFlight, res.ResidualL3QueueTokens)
		}
	}
}

// FuzzAudit is the native fuzz target: `go test -fuzz FuzzAudit
// ./internal/audit/fuzz` explores the seed space indefinitely; the
// checked-in corpus below keeps a spread of configuration corners in
// every ordinary `go test` run.
func FuzzAudit(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1337, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if seed <= 0 {
			t.Skip("profile derivation wants a positive seed")
		}
		a, _, err := RunSeed(seed)
		if err != nil {
			t.Skip(err) // unsatisfiable derived profile, not a sim bug
		}
		if !a.Ok() {
			t.Fatalf("seed %d: %s", seed, a.Summary())
		}
	})
}
