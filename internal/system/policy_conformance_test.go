package system

import (
	"testing"

	"cmpcache/internal/audit"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/wbpolicy"
	"cmpcache/internal/workload"
)

// conformanceMechanisms is every registered write-back policy. A new
// policy added to wbpolicy.New must be added here (and will then be
// held to the same determinism obligations as the paper mechanisms).
var conformanceMechanisms = []config.Mechanism{
	config.Baseline, config.WBHT, config.Snarf, config.Combined,
	config.ReuseDist, config.HybridUI,
}

// TestPolicyConformanceBitIdentity holds every registered policy to the
// differential auditor on the shared conformance trace: a policy whose
// hooks corrupt coherence state or leak resources fails the audit here.
func TestPolicyConformanceBitIdentity(t *testing.T) {
	tr := parallelTrace(t, 16, 400)
	for _, m := range conformanceMechanisms {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := config.Default().WithMechanism(m)
			if ref := matrixRun(t, cfg, tr, "auditor"); !ref.auditOK {
				t.Fatalf("run failed audit:\n%s", ref.auditSum)
			}
		})
	}
}

// TestPolicyConformanceAuditSoak runs every registered policy over
// several workload seeds with the full differential auditor (invariant
// ledgers plus the reference coherence model) and requires a clean
// verdict on each. Seeds are fixed, not sampled at test time, so a
// failure reproduces.
func TestPolicyConformanceAuditSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	seeds := []uint64{1, 0x9E3779B97F4A7C15, 42424242}
	for _, m := range conformanceMechanisms {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			for _, seed := range seeds {
				p, err := workload.ByName("tp")
				if err != nil {
					t.Fatal(err)
				}
				p.Seed = seed
				p.Threads = 16
				p.RefsPerThread = 600
				tr, err := p.Generate()
				if err != nil {
					t.Fatal(err)
				}
				cfg := config.Default().WithMechanism(m)
				aud := audit.New(audit.Config{Differential: true, SweepEvery: 512})
				s, err := New(cfg, tr, aud)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
				if !aud.Ok() {
					t.Fatalf("seed %#x: audit violations:\n%s", seed, aud.Summary())
				}
			}
		})
	}
}

// TestPolicyHooksZeroAlloc pins the observation hooks of every
// registered policy to zero steady-state allocations, the property the
// cmpbench bench-check throughput gate depends on: hooks fire per bus
// event, so a single allocation per call would dominate the allocs/op
// budget. Tables are warmed first — cold-path allocation (building a
// sketch row, inserting a score entry) is allowed.
func TestPolicyHooksZeroAlloc(t *testing.T) {
	// A peer-sourced read outcome: the shape that trains the hybridui
	// sharing score, so its hot path is exercised too.
	out := coherence.Outcome{Source: coherence.SourcePeerL2, SourceAgent: 2, SharedElsewhere: true}
	for _, m := range conformanceMechanisms {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := config.Default().WithMechanism(m)
			chip := wbpolicy.New(&cfg)
			agent := chip.Agent(0)
			// Warm every table with the keys the measurement loop uses.
			for key := uint64(0); key < 64; key++ {
				chip.ObserveWriteBack(key)
				chip.ObserveDemandMiss(key)
				chip.ObserveDemandOutcome(1, key, coherence.Read, out)
				chip.UseUpdate(key)
				agent.ObserveEviction(key)
				agent.ObserveLocalMiss(key)
				agent.AbortCleanWB(key, true, false)
				agent.FlagWriteBack(key)
			}
			allocs := testing.AllocsPerRun(100, func() {
				for key := uint64(0); key < 64; key++ {
					chip.ObserveWriteBack(key)
					chip.ObserveDemandMiss(key)
					chip.ObserveDemandOutcome(1, key, coherence.Read, out)
					chip.UseUpdate(key)
					agent.ObserveEviction(key)
					agent.ObserveLocalMiss(key)
					agent.AbortCleanWB(key, true, false)
					agent.FlagWriteBack(key)
					agent.AcceptOffer(key)
					agent.SnoopsWB()
				}
				chip.SnoopsWBRing()
				chip.GatedBySwitch()
			})
			if allocs != 0 {
				t.Fatalf("policy hooks allocate %.1f times per warm sweep; hooks must be allocation-free", allocs)
			}
		})
	}
}
