package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// adoptFixture builds a plain (unversioned) 30-row table on a fresh
// FaultFS driven by script, sized so the one-page pool must evict — and
// write back — continuously while AdoptTable copies rows into the
// versioned temp heap.
func adoptFixture(t *testing.T, script *vfs.Script) (*vfs.FaultFS, *db.Database, *Store) {
	t.Helper()
	fs := vfs.NewFaultFS(script)
	d := db.Open(db.Options{DataFS: fs, DataDir: "data", PoolPages: 1, PageSize: 256})
	s, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := catalog.MustSchema("plain", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
	tbl, err := d.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 30; k++ {
		if _, err := tbl.Insert(catalog.Tuple{catalog.NewInt(k), catalog.NewInt(k)}); err != nil {
			t.Fatal(err)
		}
	}
	return fs, d, s
}

// TestAdoptTableHeapFaultMidLoad injects write failures on the versioned
// temp heap's eviction write-backs while AdoptTable is mid-copy: the
// adoption must fail cleanly — original table registered and fully
// readable, no half-adopted versioned table, no leaked __adopting temp —
// and the same adoption must succeed once the hardware heals.
//
// The failing op index is found by rehearsal, not hard-coded: a clean run
// records the I/O trace, and the fault is aimed at the first write-back of
// the __adopting heap. The workload is deterministic, so the index holds.
func TestAdoptTableHeapFaultMidLoad(t *testing.T) {
	// Rehearsal: clean adoption, to locate the temp heap's first
	// write-back in the op stream.
	rehearsalFS, _, rehearsalStore := adoptFixture(t, nil)
	if _, err := rehearsalStore.AdoptTable("plain"); err != nil {
		t.Fatalf("clean adoption failed: %v", err)
	}
	target := 0
	for _, r := range rehearsalFS.Trace() {
		if strings.HasPrefix(r.Site, "writeat data/plain__adopting.heap") {
			target = r.Index
			break
		}
	}
	if target == 0 {
		for _, r := range rehearsalFS.Trace() {
			t.Logf("op %3d: %s", r.Index, r.Site)
		}
		t.Fatal("clean adoption performed no temp-heap write-backs; shrink the pool or grow the table")
	}

	// The real run: every heap write from the first temp write-back on
	// fails (the range also covers the cleanup drop's I/O).
	script := vfs.NewScript().AddFaultRange(target, target+200, vfs.FaultErr)
	fs, d, s := adoptFixture(t, script)
	if _, err := s.AdoptTable("plain"); err == nil {
		t.Fatal("AdoptTable succeeded despite the temp heap's write-backs failing")
	}

	// The failure is clean: no versioned registration, no leaked temp
	// table, and the original rows are all still readable.
	if _, err := s.Table("plain"); err == nil {
		t.Fatal("failed adoption left a versioned table registered")
	}
	if _, err := d.TableOf("plain__adopting"); err == nil {
		t.Fatal("failed adoption leaked the __adopting temp table")
	}
	orig, err := d.TableOf("plain")
	if err != nil {
		t.Fatalf("original table lost after failed adoption: %v", err)
	}
	rows := 0
	orig.Scan(func(_ storage.RID, _ catalog.Tuple) bool { rows++; return true })
	if rows != 30 {
		t.Fatalf("original table has %d readable rows after failed adoption, want 30", rows)
	}

	// Healthy hardware: the retry adopts all 30 rows.
	fs.SetScript(nil)
	vt, err := s.AdoptTable("plain")
	if err != nil {
		t.Fatalf("retry adoption: %v", err)
	}
	sess := s.BeginSession()
	defer sess.Close()
	rows = 0
	if err := sess.Scan("plain", func(_ catalog.Tuple) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows != 30 {
		t.Fatalf("adopted table scans %d rows, want 30", rows)
	}
	if vt.Base().Name != "plain" {
		t.Fatalf("adopted table named %q, want plain", vt.Base().Name)
	}
}

// TestRollbackFaultLeavesItRetryable injects write-back failures into a
// rollback's revert, on a one-page pool where every tuple read evicts and
// writes back a dirty page. A revert that skipped the tuple it could not
// read would leave it with tupleVN1 = maintenanceVN, and the next
// transaction, which reuses that VN, would publish the aborted values when
// it committed. So the failed Rollback must report the fault and keep the
// transaction active, Commit must refuse it, and a retry on healed hardware
// must restore the pre-transaction state.
func TestRollbackFaultLeavesItRetryable(t *testing.T) {
	fs := vfs.NewFaultFS(nil)
	d := db.Open(db.Options{DataFS: fs, DataDir: "data", PoolPages: 1, PageSize: 256})
	s, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	const keys = 30
	m := mustMaint(t, s)
	for k := int64(1); k <= keys; k++ {
		if err := m.Insert("kv", kvTuple(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	vn := s.CurrentVN()

	m = mustMaint(t, s)
	if _, err := m.Exec(`UPDATE kv SET v = v + 1000`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvTuple(keys+1, 1)); err != nil {
		t.Fatal(err)
	}
	next := fs.PersistOps() + 1
	fs.SetScript(vfs.NewScript().AddFaultRange(next, next+1000, vfs.FaultErr))
	if err := m.Rollback(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Rollback under write-back faults = %v, want the injected fault", err)
	}
	if fs.PersistOps() < next {
		t.Fatal("the revert performed no write-back; the fault proves nothing")
	}
	if !s.MaintenanceActive() {
		t.Fatal("a failed Rollback ended the transaction")
	}
	if err := m.Commit(); err == nil {
		t.Fatal("Commit accepted a half-reverted transaction")
	}

	fs.SetScript(nil)
	if err := m.Rollback(); err != nil {
		t.Fatalf("retried Rollback: %v", err)
	}
	if s.CurrentVN() != vn || s.MaintenanceActive() {
		t.Fatalf("globals after the retry: VN=%d active=%v, want VN=%d idle", s.CurrentVN(), s.MaintenanceActive(), vn)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The next transaction takes the aborted one's VN; committing it must
	// publish nothing of the aborted one.
	commit(t, mustMaint(t, s))
	sess := s.BeginSession()
	defer sess.Close()
	rows, err := sess.Query(`SELECT COUNT(*), SUM(v) FROM kv`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rows.Tuples), fmt.Sprintf("[(%d, %d)]", keys, keys*(keys+1)/2); got != want {
		t.Fatalf("after the retried rollback and a commit: %s, want %s", got, want)
	}
}
