package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/vfs"
)

func kvSchema() *catalog.Schema {
	return catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
}

func TestValueRoundTrip(t *testing.T) {
	values := []catalog.Value{
		catalog.Null,
		catalog.NewInt(0), catalog.NewInt(-1), catalog.NewInt(1 << 40),
		catalog.NewFloat(3.25), catalog.NewFloat(-0.5),
		catalog.NewString(""), catalog.NewString("San Jose"),
		catalog.NewBool(true), catalog.NewBool(false),
		catalog.DateFromYMD(1996, 10, 14),
	}
	for _, v := range values {
		buf := appendValue(nil, v)
		got, rest, err := readValue(buf)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(rest) != 0 {
			t.Errorf("%v: %d leftover bytes", v, len(rest))
		}
		if got.Kind() != v.Kind() || !catalog.Equal(got, v) && !(got.IsNull() && v.IsNull()) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(i int64, s string, fl float64, b bool) bool {
		tuple := catalog.Tuple{
			catalog.NewInt(i), catalog.NewString(s), catalog.NewFloat(fl), catalog.NewBool(b), catalog.Null,
		}
		buf := appendTuple(nil, tuple)
		got, rest, err := readTuple(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return catalog.TuplesEqual(got, tuple)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := catalog.MustSchema("DailySales", []catalog.Column{
		{Name: "city", Type: catalog.TypeString, Length: 20},
		{Name: "date", Type: catalog.TypeDate, Length: 4},
		{Name: "total", Type: catalog.TypeInt, Length: 4, Updatable: true},
	}, "city", "date")
	buf := appendSchema(nil, s)
	got, rest, err := readSchema(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%v, %d leftover", err, len(rest))
	}
	if got.String() != s.String() {
		t.Errorf("schema round trip:\n%s\n%s", s, got)
	}
}

// journaledStore builds a store journaling to a fresh log file.
func journaledStore(t *testing.T, policy Policy) (*core.Store, *Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := Create(path, policy)
	if err != nil {
		t.Fatal(err)
	}
	engine := db.Open(db.Options{})
	store, err := core.Open(engine, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.SetJournal(log)
	if _, err := store.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	return store, log, path
}

func kv(k, v int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)} }

func runBatch(t *testing.T, store *core.Store, fn func(m *core.Maintenance)) {
	t.Helper()
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	fn(m)
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRoundTrip journals a realistic history (inserts, updates,
// logical + physical deletes, resurrections, an aborted transaction) and
// verifies recovery reproduces the logical state exactly.
func TestRecoverRoundTrip(t *testing.T) {
	store, log, path := journaledStore(t, PolicyRedoOnly)
	runBatch(t, store, func(m *core.Maintenance) { // VN 2
		for k := int64(0); k < 10; k++ {
			if err := m.Insert("kv", kv(k, 100)); err != nil {
				t.Fatal(err)
			}
		}
	})
	runBatch(t, store, func(m *core.Maintenance) { // VN 3
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
			func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(111); return c }); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(2)}); err != nil {
			t.Fatal(err)
		}
		// Insert + delete in one txn: physical insert then physical delete.
		if err := m.Insert("kv", kv(50, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(50)}); err != nil {
			t.Fatal(err)
		}
	})
	// An aborted transaction: its records must not be replayed.
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(3)},
		func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(999); return c }); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kv(60, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	runBatch(t, store, func(m *core.Maintenance) { // VN 4: resurrect key 2
		if err := m.Insert("kv", kv(2, 222)); err != nil {
			t.Fatal(err)
		}
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Capture the live logical state.
	wantState := logicalState(t, store)

	rec, _, stats, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.CommittedTxns != 3 || stats.SkippedTxns != 1 || stats.TablesCreated != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if rec.CurrentVN() != store.CurrentVN() {
		t.Errorf("recovered VN %d, want %d", rec.CurrentVN(), store.CurrentVN())
	}
	gotState := logicalState(t, rec)
	if len(gotState) != len(wantState) {
		t.Fatalf("recovered %d tuples, want %d\n%v\n%v", len(gotState), len(wantState), gotState, wantState)
	}
	for k, v := range wantState {
		if gotState[k] != v {
			t.Errorf("key %d: recovered %d, want %d", k, gotState[k], v)
		}
	}
	// The recovered warehouse is writable: the next transaction proceeds.
	runBatch(t, rec, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(70, 7)); err != nil {
			t.Fatal(err)
		}
	})
}

func logicalState(t *testing.T, s *core.Store) map[int64]int64 {
	t.Helper()
	sess := s.BeginSession()
	defer sess.Close()
	out := map[int64]int64{}
	if err := sess.Scan("kv", func(b catalog.Tuple) bool {
		out[b[0].Int()] = b[1].Int()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUncommittedTailSkipped simulates a crash mid-transaction: the log has
// Begin and changes but no Commit. Recovery must reproduce the last
// committed state.
func TestUncommittedTailSkipped(t *testing.T) {
	store, log, path := journaledStore(t, PolicyRedoOnly)
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(1, 10)); err != nil {
			t.Fatal(err)
		}
	})
	// Crash mid-transaction: changes written, no commit record, process
	// "dies" (we just close the log without committing).
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
		func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(99); return c }); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kv(2, 20)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, stats, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedTxns != 1 {
		t.Errorf("skipped = %d, want 1", stats.SkippedTxns)
	}
	state := logicalState(t, rec)
	if len(state) != 1 || state[1] != 10 {
		t.Errorf("recovered state = %v, want {1:10}", state)
	}
	if rec.CurrentVN() != 2 {
		t.Errorf("recovered VN = %d, want 2", rec.CurrentVN())
	}
}

// TestTornTailTolerated truncates the log mid-record; recovery stops at the
// tear and keeps everything before it.
func TestTornTailTolerated(t *testing.T) {
	store, log, path := journaledStore(t, PolicyRedoOnly)
	runBatch(t, store, func(m *core.Maintenance) {
		for k := int64(0); k < 5; k++ {
			if err := m.Insert("kv", kv(k, 1)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage (a torn header + bytes).
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE})
	f.Close()
	rec, _, _, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatalf("Recover over torn tail: %v", err)
	}
	if got := logicalState(t, rec); len(got) != 5 {
		t.Errorf("recovered %d tuples, want 5", len(got))
	}
	// Corrupt payload with valid-looking header is also tolerated as tail.
	f, _ = os.OpenFile(path, os.O_WRONLY, 0)
	f.WriteAt([]byte{9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 0)
	f.Close()
	if _, _, _, err := Recover(path, db.Options{}, core.Options{}); err != nil {
		t.Errorf("Recover over corrupt head: %v (tolerated as torn tail)", err)
	}
}

// TestPolicyLogVolume pins the §7 claim: the redo-only log is strictly
// smaller than the full-images log for the same batch, by the before-image
// volume.
func TestPolicyLogVolume(t *testing.T) {
	runs := map[Policy]Stats{}
	for _, p := range []Policy{PolicyRedoOnly, PolicyFullImages} {
		store, log, _ := journaledStore(t, p)
		runBatch(t, store, func(m *core.Maintenance) {
			for k := int64(0); k < 200; k++ {
				if err := m.Insert("kv", kv(k, 1)); err != nil {
					t.Fatal(err)
				}
			}
		})
		runBatch(t, store, func(m *core.Maintenance) {
			for k := int64(0); k < 200; k++ {
				if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(k)},
					func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(2); return c }); err != nil {
					t.Fatal(err)
				}
			}
		})
		runs[p] = log.Stats()
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	redo, full := runs[PolicyRedoOnly], runs[PolicyFullImages]
	if redo.Records != full.Records {
		t.Errorf("record counts differ: %d vs %d", redo.Records, full.Records)
	}
	if redo.BeforeBytes != 0 {
		t.Errorf("redo-only logged %d before-image bytes", redo.BeforeBytes)
	}
	if full.BeforeBytes == 0 || full.Bytes != redo.Bytes+full.BeforeBytes {
		t.Errorf("full-images accounting: bytes=%d redo=%d before=%d", full.Bytes, redo.Bytes, full.BeforeBytes)
	}
	// Both policies recover identically (recovery is redo-only either way).
}

// TestFullImagesRecovery: the full-images log recovers to the same state.
func TestFullImagesRecovery(t *testing.T) {
	store, log, path := journaledStore(t, PolicyFullImages)
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(1, 10)); err != nil {
			t.Fatal(err)
		}
	})
	runBatch(t, store, func(m *core.Maintenance) {
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
			func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(20); return c }); err != nil {
			t.Fatal(err)
		}
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, _, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := logicalState(t, rec); st[1] != 20 {
		t.Errorf("recovered %v", st)
	}
	// Before-images are present in the log.
	sawBefore := false
	if err := Iterate(path, func(r *Record) error {
		if r.Kind == KindUpdate && r.Before != nil {
			sawBefore = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawBefore {
		t.Error("full-images log has no before-images")
	}
}

// TestAdoptTableJournaled: adoption is journaled as the VN-0 load and
// recovers.
func TestAdoptTableJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := Create(path, PolicyRedoOnly)
	if err != nil {
		t.Fatal(err)
	}
	engine := db.Open(db.Options{})
	store, err := core.Open(engine, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.SetJournal(log)
	if _, err := engine.Exec(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Exec(`INSERT INTO kv VALUES (1, 10), (2, 20)`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AdoptTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, _, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := logicalState(t, rec); len(st) != 2 || st[1] != 10 || st[2] != 20 {
		t.Errorf("recovered adopted state = %v", st)
	}
}

// TestGCJournaledAndRecoverable: garbage collection's physical deletions
// are journaled, so a fresh insert of a reclaimed key replays cleanly.
func TestGCJournaledAndRecoverable(t *testing.T) {
	store, log, path := journaledStore(t, PolicyRedoOnly)
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(1, 10)); err != nil {
			t.Fatal(err)
		}
	})
	runBatch(t, store, func(m *core.Maintenance) {
		if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	})
	if st := store.GC(); st.Removed != 1 {
		t.Fatalf("GC removed %d", st.Removed)
	}
	// Fresh insert of the reclaimed key: a physical insert in the live
	// store; replay must not collide with the logically-deleted tuple.
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(1, 99)); err != nil {
			t.Fatal(err)
		}
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, _, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatalf("Recover after GC: %v", err)
	}
	if st := logicalState(t, rec); len(st) != 1 || st[1] != 99 {
		t.Errorf("recovered %v, want {1:99}", st)
	}
}

// TestRIDRemap: an aborted transaction's physical insert occupies a slot
// the next committed insert reuses; replay must resolve updates to the
// committed tuple, not the aborted one's address.
func TestRIDRemap(t *testing.T) {
	store, log, path := journaledStore(t, PolicyRedoOnly)
	// Aborted txn inserts (takes a slot), committed txn reuses it.
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kv(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(2, 2)); err != nil {
			t.Fatal(err)
		}
	})
	runBatch(t, store, func(m *core.Maintenance) {
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(2)},
			func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(22); return c }); err != nil {
			t.Fatal(err)
		}
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, _, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := logicalState(t, rec); len(st) != 1 || st[2] != 22 {
		t.Errorf("recovered %v, want {2:22}", st)
	}
	_ = storage.RID{}
}

// TestSyncFailures covers the force path's error handling: one failing
// fsync is retried and counted, while a failure that exhausts the retry
// sticks. The commit reports it, a later LogCommit returns it too, and a
// WaitDurable caller, whether it arrives after the failure or was already
// blocked when the force failed, returns at once instead of sleeping out
// its timeout.
func TestSyncFailures(t *testing.T) {
	open := func(t *testing.T) *Log {
		script, err := vfs.ParseScript("fault 3 err")
		if err != nil {
			t.Fatal(err)
		}
		// Op 1 is the create, op 2 the commit's flush, op 3 its fsync.
		l, err := CreateFS(vfs.NewFaultFS(script), "wal.log", PolicyRedoOnly)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	t.Run("retried", func(t *testing.T) {
		l := open(t)
		l.LogBegin(2)
		if err := l.LogCommit(2); err != nil {
			t.Fatalf("LogCommit with the default retry: %v", err)
		}
		if st := l.Stats(); st.Retries != 1 || st.Syncs != 1 {
			t.Fatalf("stats %+v, want 1 retry and 1 fsync", st)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("exhausted", func(t *testing.T) {
		l := open(t)
		l.SetRetry(vfs.NoRetry)
		l.LogBegin(2)
		if err := l.LogCommit(2); err == nil {
			t.Fatal("LogCommit succeeded through a failing fsync")
		}
		sticky := l.Err()
		if sticky == nil {
			t.Fatal("the failed fsync did not stick")
		}
		l.LogBegin(3)
		if err := l.LogCommit(3); !errors.Is(err, sticky) {
			t.Fatalf("LogCommit after the sticky error returned %v, want %v", err, sticky)
		}
		start := time.Now()
		if got := l.WaitDurable(l.DurableLSN(), time.Minute); got != 0 {
			t.Fatalf("WaitDurable returned durable LSN %d, want 0", got)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("WaitDurable on a failed log blocked for %v", d)
		}
	})
	t.Run("blocked-waiter", func(t *testing.T) {
		l := open(t)
		l.SetRetry(vfs.NoRetry)
		got := make(chan int64, 1)
		go func() { got <- l.WaitDurable(l.DurableLSN(), time.Minute) }()
		// Commit only once the waiter is parked on the durable channel.
		for parked := false; !parked; {
			l.mu.Lock()
			parked = l.durableCh != nil
			l.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		l.LogBegin(2)
		if err := l.LogCommit(2); err == nil {
			t.Fatal("LogCommit succeeded through a failing fsync")
		}
		select {
		case lsn := <-got:
			if lsn != 0 {
				t.Fatalf("blocked WaitDurable returned durable LSN %d, want 0", lsn)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a WaitDurable caller blocked before the failed force was not woken")
		}
	})
}
