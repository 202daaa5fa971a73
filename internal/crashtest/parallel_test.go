package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// The Parallel-workload sweeps: the workload gains a batched tail
// transaction applied through ApplyBatch on a group-committed log, and
// every persisting-I/O boundary is still crashed and validated.

// TestParallelCrashSweep crashes the Parallel workload at every persisting
// op and validates recovery after each.
func TestParallelCrashSweep(t *testing.T) {
	runSweep(t, Config{Seed: 1, Parallel: true})
}

// TestParallelWorkloadCommitsBatch pins that the Parallel configuration
// really runs the batched tail: one more acknowledged commit than the
// sequential workload (VN 6), fault-free.
func TestParallelWorkloadCommitsBatch(t *testing.T) {
	cfg := Config{Seed: 1, Parallel: true}.normalize()
	fs := vfs.NewFaultFS(cfg.Script)
	st := &runState{}
	if err := run(cfg, fs, st); err != nil {
		t.Fatalf("fault-free parallel workload: %v", err)
	}
	if st.commits != 5 {
		t.Fatalf("parallel workload acknowledged %d commits, want 5 (VN 2-6)", st.commits)
	}
	if err := validate(cfg, fs, st, false); err != nil {
		t.Fatal(err)
	}
}

// TestParallelTornGroupTail layers cutkeep scripts under the Parallel
// sweep: after each crash the power cut preserves K unsynced bytes of the
// WAL — so a crash between the final group's flush and its fsync leaves a
// torn group tail on disk. Recovery must treat the tear as end-of-log and
// land on the previous commit point, for tears inside a record header,
// inside a payload, and spanning whole records of the group.
func TestParallelTornGroupTail(t *testing.T) {
	if testing.Short() {
		t.Skip("torn-group-tail sweeps skipped in -short mode")
	}
	for _, keep := range []int{1, 5, 17, 64} {
		keep := keep
		t.Run(fmt.Sprintf("keep%d", keep), func(t *testing.T) {
			script := vfs.NewScript()
			script.CutKeep[walPath] = keep
			runSweep(t, Config{Seed: 3, Parallel: true, Script: script})
		})
	}
}

// TestParallelSweepWithRandomFaults layers a seeded fault script under the
// Parallel sweep, mirroring the sequential TestCrashSweepWithRandomFaults.
func TestParallelSweepWithRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-script sweep skipped in -short mode")
	}
	base, err := Sweep(Config{Seed: 4, Parallel: true})
	if err != nil {
		t.Fatalf("baseline parallel sweep: %v", err)
	}
	script := vfs.RandomScript(11, base.PersistOps)
	runSweep(t, Config{Seed: 4, Parallel: true, Script: script})
}

// TestParallelBatchSurfacesReadFault pins a script the random sweep found:
// the write-back fault at op 37 surfaces from a point read of a dim key
// inside the batched tail. The batch must fail on it — the run stops, and
// recovery lands on a commit point — rather than take the failed read for a
// missing key, skip the update, and acknowledge a commit that lacks it.
func TestParallelBatchSurfacesReadFault(t *testing.T) {
	script, err := vfs.ParseScript("fault 15 torn 5\nfault 23 short 2\nfault 37 err")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOnce(Config{Seed: 4, Parallel: true}, script); err != nil {
		t.Fatal(err)
	}
}
