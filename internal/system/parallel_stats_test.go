package system

import (
	"testing"

	"cmpcache/internal/config"
)

// TestShardingStatsDeterministic pins the ShardingStats contract of a
// run: the coordinator took rounds and ran shard phases, the horizon
// attribution counters sum to the shard-phase round count, and the
// deprecated barrier-wait total is zero.
func TestShardingStatsDeterministic(t *testing.T) {
	cfg := config.Default()
	s, err := New(cfg, parallelTrace(t, cfg.Threads(), 400))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run().Sharding
	if st.Rounds == 0 {
		t.Fatal("run recorded zero rounds")
	}
	if st.ParallelRounds == 0 {
		t.Fatal("run recorded zero shard-phase rounds (workload too small?)")
	}
	if got := st.HorizonNextGlobal + st.HorizonRingCredit + st.HorizonWindow; got != st.ParallelRounds {
		t.Fatalf("horizon attribution %d does not sum to parallel rounds %d", got, st.ParallelRounds)
	}
	if ns := st.BarrierWaitTotalNs(); ns != 0 {
		t.Fatalf("BarrierWaitTotalNs = %d, want 0", ns)
	}
}
