package crashtest

import (
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// miniState is the tiny two-commit workload the pinned fault scenarios
// share. Op indices on a fresh FaultFS (the WAL is the only file the engine
// writes):
//
//	op 1  create wal.log
//	op 2  write  wal.log   (commit 1: create/begin/insert/commit records)
//	op 3  sync   wal.log
//	op 4  write  wal.log   (commit 2: begin/update/commit records)
//	op 5  sync   wal.log
//
// The scenario scripts below are written — and checked in — against these
// indices; TestMiniWorkloadOpIndices pins them.
type miniState struct {
	store *core.Store
	log   *wal.Log
	// acked is how many commits returned nil.
	acked int
}

func kvSchema() *catalog.Schema {
	return catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
}

func kvRow(k, v int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)}
}

// miniRun drives the two commits; it returns on the first error, with
// state reflecting how far it got.
func miniRun(fs *vfs.FaultFS, ms *miniState) error {
	engine := db.Open(db.Options{})
	store, err := core.Open(engine, core.Options{})
	if err != nil {
		return err
	}
	ms.store = store
	log, err := wal.CreateFS(fs, "wal.log", wal.PolicyRedoOnly)
	if err != nil {
		return err
	}
	log.SetRetry(vfs.RetryPolicy{Sleep: func(time.Duration) {}}.Normalize())
	ms.log = log
	store.SetJournal(log)
	if _, err := store.CreateTable(kvSchema()); err != nil {
		return err
	}

	m, err := store.BeginMaintenance()
	if err != nil {
		return err
	}
	if err := m.Insert("kv", kvRow(1, 10)); err != nil {
		return err
	}
	if err := m.Commit(); err != nil {
		return err
	}
	ms.acked = 1

	m, err = store.BeginMaintenance()
	if err != nil {
		return err
	}
	if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)}, func(t catalog.Tuple) catalog.Tuple {
		t[1] = catalog.NewInt(20)
		return t
	}); err != nil {
		return err
	}
	if err := m.Commit(); err != nil {
		return err
	}
	ms.acked = 2
	return nil
}

func miniRecover(t *testing.T, fs *vfs.FaultFS) *core.Store {
	t.Helper()
	fs.PowerCut()
	fs.SetScript(nil)
	store, _, _, err := wal.RecoverFS(fs, "wal.log", db.Options{}, core.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
	return store
}

func miniValue(t *testing.T, store *core.Store) (int64, bool) {
	t.Helper()
	sess := store.BeginSession()
	defer sess.Close()
	tu, visible, err := sess.Get("kv", catalog.Tuple{catalog.NewInt(1)})
	if err != nil {
		t.Fatalf("post-recovery get: %v", err)
	}
	if !visible {
		return 0, false
	}
	return tu[1].Int(), true
}

// TestMiniWorkloadOpIndices pins the op numbering the scenario scripts
// below are written against; if the engine's I/O pattern shifts, this
// fails first with an explanatory trace.
func TestMiniWorkloadOpIndices(t *testing.T) {
	fs := vfs.NewFaultFS(nil)
	ms := &miniState{}
	err := miniRun(fs, ms)
	if err != nil || ms.acked != 2 {
		t.Fatalf("fault-free mini workload: acked %d, err %v", ms.acked, err)
	}
	want := []string{"create", "write", "sync", "write", "sync"}
	trace := fs.Trace()
	if len(trace) != len(want) {
		for _, r := range trace {
			t.Logf("op %d: %s", r.Index, r.Site)
		}
		t.Fatalf("mini workload performed %d persist ops, scenario scripts assume %d", len(trace), len(want))
	}
	for i, r := range trace {
		if !strings.HasPrefix(r.Site, want[i]+" wal.log") {
			t.Fatalf("op %d is %q, scenario scripts assume %q on wal.log", r.Index, r.Site, want[i])
		}
	}
}

// pinnedTornWriteScript is the checked-in regression script: commit 2's
// log append (op 4) tears after 12 bytes, the machine dies at the retry
// (op 5), and the power cut preserves exactly those 12 torn bytes past the
// last honest sync. Recovery must treat the torn tail as end-of-log and
// land on commit 1.
const pinnedTornWriteScript = `fault 4 torn 12
crash 5
cutkeep wal.log 12`

func TestPinnedTornWriteRecovery(t *testing.T) {
	script, err := vfs.ParseScript(pinnedTornWriteScript)
	if err != nil {
		t.Fatalf("parsing pinned script: %v", err)
	}
	fs := vfs.NewFaultFS(script)
	ms := &miniState{}
	crash, err := vfs.Recovering(func() error { return miniRun(fs, ms) })
	if crash == nil {
		t.Fatalf("pinned script did not crash (err %v)", err)
	}
	if ms.acked != 1 {
		t.Fatalf("acked %d commits before the crash, script expects 1", ms.acked)
	}
	store := miniRecover(t, fs)
	if got := store.CurrentVN(); got != 2 {
		t.Fatalf("recovered currentVN %d, want 2 (commit 1 only)", got)
	}
	v, visible := miniValue(t, store)
	if !visible || v != 10 {
		t.Fatalf("recovered kv[1] = (%d, %v), want the pre-tear value (10, true)", v, visible)
	}
}

// TestFsyncFailsOnceIsRetried: commit 1's fsync (op 3) fails transiently;
// the bounded retry policy reissues it (op 4) and the commit is
// acknowledged. The full two-commit state must survive a power cut.
func TestFsyncFailsOnceIsRetried(t *testing.T) {
	script, err := vfs.ParseScript("fault 3 err")
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewFaultFS(script)
	ms := &miniState{}
	if rerr := miniRun(fs, ms); rerr != nil {
		t.Fatalf("workload with one transient fsync failure did not recover: %v", rerr)
	}
	if ms.acked != 2 {
		t.Fatalf("acked %d commits, want 2", ms.acked)
	}
	if retries := ms.log.Stats().Retries; retries < 1 {
		t.Fatalf("log stats record %d retries, want >= 1", retries)
	}
	store := miniRecover(t, fs)
	if got := store.CurrentVN(); got != 3 {
		t.Fatalf("recovered currentVN %d, want 3", got)
	}
	if v, visible := miniValue(t, store); !visible || v != 20 {
		t.Fatalf("recovered kv[1] = (%d, %v), want (20, true)", v, visible)
	}
}

// TestLyingFsyncLosesOnlyTheLie: commit 2's fsync (op 5) lies — returns
// success without persisting. The engine acknowledges commit 2, but a
// power cut exposes the loss: recovery lands on commit 1. The recovered
// store must still be self-consistent and writable — the failure mode is
// bounded data loss, never corruption.
func TestLyingFsyncLosesOnlyTheLie(t *testing.T) {
	script, err := vfs.ParseScript("fault 5 synclie")
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewFaultFS(script)
	ms := &miniState{}
	if rerr := miniRun(fs, ms); rerr != nil || ms.acked != 2 {
		t.Fatalf("workload under a lying fsync: acked %d, err %v (the lie is silent)", ms.acked, rerr)
	}
	store := miniRecover(t, fs)
	if got := store.CurrentVN(); got != 2 {
		t.Fatalf("recovered currentVN %d, want 2 (the lied-about commit is lost)", got)
	}
	if v, visible := miniValue(t, store); !visible || v != 10 {
		t.Fatalf("recovered kv[1] = (%d, %v), want (10, true)", v, visible)
	}
	// Still writable: the loss is bounded, the engine is not wedged.
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvRow(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatalf("post-recovery commit after lost commit: %v", err)
	}
	if got := store.CurrentVN(); got != 3 {
		t.Fatalf("post-recovery commit left currentVN %d, want 3", got)
	}
}
