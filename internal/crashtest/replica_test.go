package crashtest

import (
	"fmt"
	"testing"
)

// runReplicaSweep executes one replica crash sweep and enforces its
// coverage floors: every counted persisting op was crashed, and the sweep
// actually spanned the whole replay (tiny segments make the append/fsync
// cadence dense, so a healthy sweep has dozens of points).
func runReplicaSweep(t *testing.T, cfg Config) {
	t.Helper()
	rep, err := ReplicaSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("swept %d replica crash points over %d persist ops (%d primary commits, final VN %d)",
		rep.Points, rep.PersistOps, rep.Commits, rep.FinalVN)
	if rep.Points == 0 || rep.Points != rep.PersistOps {
		t.Fatalf("sweep exercised %d of %d crash points", rep.Points, rep.PersistOps)
	}
	if rep.PersistOps < 10 {
		t.Fatalf("replica replay only performed %d persisting ops; sweep coverage is too thin", rep.PersistOps)
	}
	if rep.Commits < 4 {
		t.Fatalf("primary history acknowledged only %d commits", rep.Commits)
	}
}

// TestReplicaSweep crashes a follower before every persisting I/O of its
// replay path — every local-WAL append and fsync, across the whole shipped
// history — and proves each restart resumes from the last durable LSN onto
// a commit-point prefix with no record skipped or doubly applied.
func TestReplicaSweep(t *testing.T) {
	runReplicaSweep(t, Config{Seed: 1})
}

// TestReplicaSweepSeeds sweeps additional seeded histories, including
// nVNL stores, so the resume logic is proven against different record
// mixes (folds, pops, GC batches).
func TestReplicaSweepSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded replica sweeps skipped in -short mode")
	}
	cfgs := []Config{
		{Seed: 2},
		{Seed: 3},
		{Seed: 4},
		{Seed: 6},
		{Seed: 1, N: 4},
		{Seed: 5, N: 4},
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("seed=%d/n=%d", cfg.Seed, cfg.N), func(t *testing.T) {
			t.Parallel()
			runReplicaSweep(t, cfg)
		})
	}
}
