package crashtest

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestCrashSweep is the exhaustive boundary sweep: the scripted workload
// is crashed once at every persisting-I/O operation (WAL writes, fsyncs,
// creates, renames), recovered, and validated.
// CRASHTEST_SEED overrides the fixed seed; on failure the reproducing
// fault script is written to CRASHTEST_ARTIFACT (if set) and logged.
func TestCrashSweep(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("CRASHTEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CRASHTEST_SEED %q: %v", s, err)
		}
		seed = v
	}
	runSweep(t, Config{Seed: seed})
}

// TestCrashSweepRandomSeed repeats the sweep under a time-derived seed so
// CI continuously explores new workload tails. The seed is logged, so any
// failure is reproducible via CRASHTEST_SEED.
func TestCrashSweepRandomSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short mode")
	}
	seed := time.Now().UnixNano()
	t.Logf("randomized sweep seed: %d (rerun with CRASHTEST_SEED=%d)", seed, seed)
	runSweep(t, Config{Seed: seed})
}

// TestCrashSweepWithRandomFaults layers a seeded fault script (transient
// errors, a torn write, a short write, maybe a lying fsync) under the
// crash sweep: every boundary is crashed while the hardware is also
// misbehaving, and recovery must still land on a commit point. The WAL's
// bounded retry absorbs a single failing op, so a last, scripted round
// fails one WAL fsync on every attempt (ExhaustedSyncScript): the fault
// surfaces and stops the workload, and recovery must still validate at
// every crash point.
func TestCrashSweepWithRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-script sweep skipped in -short mode")
	}
	base, err := Sweep(Config{Seed: 2})
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		script := vfs.RandomScript(rng.Int63(), base.PersistOps)
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			runSweep(t, Config{Seed: 2, Script: script})
		})
	}
	t.Run("exhausted-retry", func(t *testing.T) {
		runFaultStopSweep(t, Config{Seed: 2})
	})
}

// TestTornTailSweep layers cutkeep scripts under the sweep: after each
// crash the power cut preserves K unsynced bytes of the WAL, so a crash
// between a commit's flush and its fsync leaves a torn tail on disk.
// Recovery must treat the tear as end-of-log and land on the previous
// commit point, for tears inside a record header, inside a payload, and
// spanning whole records of the transaction.
func TestTornTailSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("torn-tail sweeps skipped in -short mode")
	}
	for _, keep := range []int{1, 5, 17, 64} {
		t.Run(fmt.Sprintf("keep%d", keep), func(t *testing.T) {
			script := vfs.NewScript()
			script.CutKeep[walPath] = keep
			runSweep(t, Config{Seed: 3, Script: script})
		})
	}
}

// TestCrashSweepSeed4 sweeps the workload under a second fixed seed. The
// seed draws the update mix and the ApplyBatch tail's deltas, so seed 4
// crashes a different batch than TestCrashSweep's seed 1, reproducibly.
func TestCrashSweepSeed4(t *testing.T) {
	runSweep(t, Config{Seed: 4})
}

// TestCrashSweepSeed4WithRandomFaults layers a seeded fault script under
// the seed-4 sweep, mirroring TestCrashSweepWithRandomFaults, its
// exhausted-retry round included.
func TestCrashSweepSeed4WithRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-script sweep skipped in -short mode")
	}
	base, err := Sweep(Config{Seed: 4})
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	script := vfs.RandomScript(11, base.PersistOps)
	runSweep(t, Config{Seed: 4, Script: script})
	runFaultStopSweep(t, Config{Seed: 4})
}

// TestWorkloadCommitsBatch pins that the fault-free workload acknowledges
// all seven transactions, the ApplyBatch tail at VN 6 among them, and that
// the recovered store matches the last of them.
func TestWorkloadCommitsBatch(t *testing.T) {
	cfg := Config{Seed: 1}.normalize()
	fs := vfs.NewFaultFS(cfg.Script)
	st := &runState{}
	if err := run(cfg, fs, st); err != nil {
		t.Fatalf("fault-free workload: %v", err)
	}
	if st.commits != 7 {
		t.Fatalf("workload acknowledged %d commits, want 7 (VN 2-8)", st.commits)
	}
	if err := validate(cfg, fs, st, false); err != nil {
		t.Fatal(err)
	}
}

// runFaultStopSweep sweeps cfg under ExhaustedSyncScript and requires that
// the surfaced fault stopped the workload.
func runFaultStopSweep(t *testing.T, cfg Config) {
	t.Helper()
	script, err := ExhaustedSyncScript(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Script = script
	if rep := runSweep(t, cfg); rep.FaultStops < 1 {
		t.Fatalf("no run stopped on the exhausted fsync retry under\n%s", cfg.Script)
	}
}

// TestWorkloadCoversAllBoundaryKinds pins the promise the sweep rests on:
// the scripted workload's persisting-I/O trace includes every boundary
// class — WAL appends, WAL fsyncs, file creates, and the checkpoint rename
// — so "crash at every op" really does mean
// "crash at every kind of durability transition".
func TestWorkloadCoversAllBoundaryKinds(t *testing.T) {
	cfg := Config{Seed: 1}.normalize()
	fs := vfs.NewFaultFS(cfg.Script)
	st := &runState{}
	if err := run(cfg, fs, st); err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	classes := map[string]func(site string) bool{
		"WAL append":  func(s string) bool { return strings.HasPrefix(s, "write data/wal.log") },
		"WAL fsync":   func(s string) bool { return strings.HasPrefix(s, "sync data/wal.log") },
		"file create": func(s string) bool { return strings.HasPrefix(s, "create ") },
		"ckpt rename": func(s string) bool { return strings.HasPrefix(s, "rename ") },
	}
	trace := fs.Trace()
	for name, match := range classes {
		found := false
		for _, r := range trace {
			if match(r.Site) {
				found = true
				break
			}
		}
		if !found {
			for _, r := range trace {
				t.Logf("op %3d: %s", r.Index, r.Site)
			}
			t.Fatalf("workload trace contains no %s boundary", name)
		}
	}
}

func runSweep(t *testing.T, cfg Config) Report {
	t.Helper()
	rep, err := Sweep(cfg)
	if err != nil {
		if rep.FailScript != "" {
			t.Logf("reproducing fault script:\n%s", rep.FailScript)
			if path := os.Getenv("CRASHTEST_ARTIFACT"); path != "" {
				if werr := os.WriteFile(path, []byte(rep.FailScript+"\n"), 0o644); werr != nil {
					t.Logf("writing artifact %s: %v", path, werr)
				} else {
					t.Logf("fault script saved to %s", path)
				}
			}
		}
		t.Fatal(err)
	}
	t.Logf("swept %d crash points over %d persist ops (%d commits, %d fault stops)",
		rep.Points, rep.PersistOps, rep.Commits, rep.FaultStops)
	if rep.Points == 0 {
		t.Fatal("sweep exercised zero crash points")
	}
	// Under a fault script the workload may legitimately stop at the first
	// surfaced error, so coverage floors only bind the fault-free runs.
	if cfg.Script == nil {
		if rep.PersistOps < 20 {
			t.Fatalf("workload only performed %d persisting ops; sweep coverage is too thin", rep.PersistOps)
		}
		if rep.Commits < 4 {
			t.Fatalf("fault-free workload acknowledged only %d commits", rep.Commits)
		}
	}
	return rep
}
