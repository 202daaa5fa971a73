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
// fails one WAL fsync on every attempt (exhaustedSyncScript): the fault
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

// exhaustedSyncScript fails the second WAL fsync of cfg's fault-free
// workload on every retry attempt: vfs.DefaultRetryAttempts consecutive
// `fault N err` lines, so the WAL's bounded retry gives up and the fault
// surfaces after a commit has become durable.
func exhaustedSyncScript(t *testing.T, cfg Config) *vfs.Script {
	t.Helper()
	fs := vfs.NewFaultFS(nil)
	if err := run(cfg.normalize(), fs, &runState{}); err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	syncs := 0
	for _, r := range fs.Trace() {
		if !strings.HasPrefix(r.Site, "sync data/wal.log") {
			continue
		}
		if syncs++; syncs == 2 {
			script := vfs.NewScript()
			for i := 0; i < vfs.DefaultRetryAttempts; i++ {
				script.AddFault(r.Index+i, vfs.FaultErr, 0)
			}
			return script
		}
	}
	t.Fatal("workload performs fewer than two WAL fsyncs")
	return nil
}

// runFaultStopSweep sweeps cfg under exhaustedSyncScript and requires that
// the surfaced fault stopped the workload.
func runFaultStopSweep(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Script = exhaustedSyncScript(t, cfg)
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
