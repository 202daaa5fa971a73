package db

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/vfs"
)

func faultKVSchema() *catalog.Schema {
	return catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
}

// TestRenameTableBackingFaultLeavesCatalogIntact: the backing-file rename
// is the first (and only) side effect of RenameTable, so an injected
// failure there must leave the catalog untouched — old name resolvable,
// new name absent, every row still readable — and a retry on healthy
// hardware must succeed.
func TestRenameTableBackingFaultLeavesCatalogIntact(t *testing.T) {
	script := vfs.NewScript()
	fs := vfs.NewFaultFS(script)
	d := Open(Options{DataFS: fs, DataDir: "data", PoolPages: 2, PageSize: 256})
	tbl, err := d.CreateTable(faultKVSchema())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 20; k++ {
		if _, err := tbl.Insert(catalog.Tuple{catalog.NewInt(k), catalog.NewInt(k * 10)}); err != nil {
			t.Fatal(err)
		}
	}

	// The very next persisting op is the rename; make it fail.
	script.AddFault(fs.PersistOps()+1, vfs.FaultErr, 0)
	err = d.RenameTable("kv", "kv2")
	if err == nil {
		t.Fatal("RenameTable succeeded despite the injected rename fault")
	}
	if !strings.Contains(err.Error(), "renaming backing file") {
		t.Fatalf("RenameTable error = %v, want the backing-file wrap", err)
	}

	// Catalog untouched: old name resolves, new name does not.
	if _, err := d.TableOf("kv"); err != nil {
		t.Fatalf("original table lost after failed rename: %v", err)
	}
	if _, err := d.TableOf("kv2"); err == nil {
		t.Fatal("new name registered despite failed rename")
	}
	rows := 0
	tbl.Scan(func(_ storage.RID, _ catalog.Tuple) bool { rows++; return true })
	if rows != 20 {
		t.Fatalf("original table has %d readable rows after failed rename, want 20", rows)
	}

	// Healthy hardware: the retry goes through and moves the file.
	fs.SetScript(nil)
	if err := d.RenameTable("kv", "kv2"); err != nil {
		t.Fatalf("retry rename: %v", err)
	}
	if _, err := d.TableOf("kv2"); err != nil {
		t.Fatalf("renamed table missing: %v", err)
	}
	if _, err := d.TableOf("kv"); err == nil {
		t.Fatal("old name still registered after successful rename")
	}
	if _, err := fs.ReadFile("data/kv2.heap"); err != nil {
		t.Fatalf("backing file not at the new path: %v", err)
	}
	if _, err := fs.ReadFile("data/kv.heap"); err == nil {
		t.Fatal("backing file still at the old path")
	}
}

// TestWriteBackFaultKeepsIndexesInStep: a heap write whose buffer-pool touch
// fails to write back an evicted page has still made its change, so the
// table must bring its key and secondary indexes in step before it reports
// the failure. A delete that returned first left a dangling key entry, and a
// later insert of the key was refused as a duplicate.
func TestWriteBackFaultKeepsIndexesInStep(t *testing.T) {
	d := Open(Options{PoolPages: 1})
	// The fault is a page of a file no heap owns, whose write-back fails.
	// When armed, the summariser (which runs inside each heap write) caches
	// it dirty, evicting the heap's page; the write's own touch then evicts
	// it in turn and reports the failure.
	errDisk := errors.New("disk full")
	fake := storage.PageKey{File: 1 << 30}
	d.pool.RegisterWriter(fake.File, func(int) error { return errDisk })
	armed := false
	tbl, err := d.CreateSummarisedTable(faultKVSchema(), func(catalog.Tuple) (int64, bool) {
		if armed {
			armed = false
			_ = d.pool.Touch(fake, true)
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("kv_v", "hash", "v"); err != nil {
		t.Fatal(err)
	}
	kv := func(k, v int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)} }
	key := func(k int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k)} }
	rids := map[int64]storage.RID{}
	for k := int64(1); k <= 3; k++ {
		if rids[k], err = tbl.Insert(kv(k, k*10)); err != nil {
			t.Fatal(err)
		}
	}
	faulted := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, storage.ErrWriteBack) || !errors.Is(err, errDisk) {
			t.Fatalf("%s under a write-back fault = %v, want ErrWriteBack wrapping the fault", op, err)
		}
	}
	secondary := func(v int64) []storage.RID {
		t.Helper()
		got, err := tbl.IndexLookup("kv_v", catalog.Tuple{catalog.NewInt(v)})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	armed = true
	faulted("Delete", tbl.Delete(rids[2]))
	if _, ok := tbl.SearchKey(key(2)); ok {
		t.Fatal("the key index still names the deleted tuple")
	}
	if got := secondary(20); len(got) != 0 {
		t.Fatalf("the secondary index still names the deleted tuple: %v", got)
	}
	if err := tbl.Delete(rids[2]); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("deleting again = %v, want ErrNotFound", err)
	}
	if _, err := tbl.Insert(kv(2, 21)); err != nil {
		t.Fatalf("re-inserting the deleted key: %v", err)
	}

	armed = true
	faulted("Update", tbl.Update(rids[1], kv(1, 11)))
	if got := secondary(10); len(got) != 0 {
		t.Fatalf("the secondary index still names the old value: %v", got)
	}
	if got := secondary(11); len(got) != 1 || got[0] != rids[1] {
		t.Fatalf("secondary index on the new value = %v, want [%v]", got, rids[1])
	}

	armed = true
	rid, err := tbl.Insert(kv(4, 40))
	faulted("Insert", err)
	if got, ok := tbl.SearchKey(key(4)); !ok || got != rid {
		t.Fatalf("key index for the inserted tuple = %v, %v; want %v", got, ok, rid)
	}
	if got := secondary(40); len(got) != 1 || got[0] != rid {
		t.Fatalf("secondary index for the inserted tuple = %v, want [%v]", got, rid)
	}
	if armed {
		t.Fatal("the summariser never ran; no fault was injected")
	}
}
