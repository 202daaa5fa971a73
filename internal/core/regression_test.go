package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/storage"
)

// assertWatermark pins the per-table oldest-slot high-water mark against
// the full-scan oracle: the stored mark equals the scan maximum, and the
// O(1) expiration probe agrees with the scan form for every version up to
// just past currentVN.
func assertWatermark(t *testing.T, s *Store, vt *VTable) {
	t.Helper()
	e := vt.ext
	oldest := e.L.N - 1
	var max int64
	vt.tbl.Scan(func(_ storage.RID, tu catalog.Tuple) bool {
		if vn := int64(e.TupleVN(tu, oldest)); vn > max {
			max = vn
		}
		return true
	})
	if got := vt.oldestHW.Load(); got != max {
		t.Errorf("%s: oldestHW = %d, scan max = %d", vt.Base().Name, got, max)
	}
	for vn := VN(0); vn <= s.CurrentVN()+2; vn++ {
		fast, slow := vt.hasUnreconstructible(vn), vt.scanUnreconstructible(vn)
		if fast != slow {
			t.Errorf("%s: hasUnreconstructible(%d) = %v, scan oracle = %v", vt.Base().Name, vn, fast, slow)
		}
	}
}

// TestOldestHWMatchesScan drives every path that can move a table's
// watermark — inserts, updates, deletes, rollback, recovery's
// SetCurrentVN, and GC — asserting the maintained mark never diverges from
// the scan oracle.
func TestOldestHWMatchesScan(t *testing.T) {
	s := newStore(t, 2)
	vt, err := s.CreateTable(kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string) {
		t.Helper()
		assertWatermark(t, s, vt)
		if t.Failed() {
			t.Fatalf("watermark diverged after %s", name)
		}
	}
	step("create")

	m := mustMaint(t, s)
	for k := int64(0); k < 6; k++ {
		if err := m.Insert("kv", kvTuple(k, 10)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	step("insert commit")

	m = mustMaint(t, s)
	if _, err := m.Exec(`UPDATE kv SET v = v + 1 WHERE k < 3`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	step("update/delete commit")

	// Rollback deletes the inserted tuple and rewrites slot 1 as
	// (currentVN, ·); the recompute keeps the mark exact.
	m = mustMaint(t, s)
	if _, err := m.Exec(`UPDATE kv SET v = v + 100 WHERE k < 4`, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvTuple(40, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	step("rollback")

	// GC physically removes dead tuples, possibly the ones carrying the
	// mark.
	m = mustMaint(t, s)
	if _, err := m.Exec(`DELETE FROM kv WHERE k = 4`, nil); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	s.GC()
	step("gc")

	// Recovery installs a version without running the maintenance write
	// path; SetCurrentVN rebuilds the marks by scan.
	if err := s.SetCurrentVN(s.CurrentVN() + 3); err != nil {
		t.Fatal(err)
	}
	step("recovery SetCurrentVN")

	for _, n := range []int{2, 3} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("batch/n=%d/workers=%d", n, workers), func(t *testing.T) {
				watermarkBatches(t, n, workers)
			})
		}
	}
}

// applySplit applies ds as the given number of shard writers would receive
// it: split into key partitions by PartitionDelta, each partition keeping
// submission order, and applied as consecutive ApplyBatch calls of one
// transaction. after runs once each call has returned. It reports the
// number of calls made; an empty partition makes none.
func applySplit(t *testing.T, m *Maintenance, ds []Delta, workers int, after func()) int {
	t.Helper()
	parts := make([][]Delta, workers)
	for i, d := range ds {
		p, err := PartitionDelta(kvSchema(), d, i, workers)
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = append(parts[p], d)
	}
	calls := 0
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		if _, err := m.ApplyBatch(part); err != nil {
			t.Fatal(err)
		}
		calls++
		after()
	}
	return calls
}

// watermarkBatches is TestOldestHWMatchesScan's batch half: each batch ends
// with the mark settled, so it is pinned exact after the batch, while the
// transaction is still open, and again after Commit. The batches carry fresh
// insert/delete pairs, a Table 4 row-2 pop of a re-insert, and deletes whose
// tuples GC then removes; a replayed removal of the carrier ends it. With
// workers > 1 each batch is split by key (applySplit), and the mark is also
// pinned after every partition.
func watermarkBatches(t *testing.T, n, workers int) {
	s := newStore(t, n)
	vt, err := s.CreateTable(kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	key := func(k int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k)} }
	batch := func(name string, deltas ...Delta) {
		t.Helper()
		m := mustMaint(t, s)
		applySplit(t, m, deltas, workers, func() {
			if assertWatermark(t, s, vt); t.Failed() {
				t.Fatalf("watermark diverged after %s, before its commit", name)
			}
		})
		commit(t, m)
		if assertWatermark(t, s, vt); t.Failed() {
			t.Fatalf("watermark diverged after %s", name)
		}
	}
	var ds []Delta
	for k := int64(0); k < 10; k++ {
		ds = append(ds, Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(k, k)})
	}
	batch("load", ds...)

	// Updates give tuples history; deletes of 5 and 6 mark them for GC;
	// fresh pairs 100–103 net to nothing.
	ds = ds[:0]
	for k := int64(0); k < 5; k++ {
		ds = append(ds, Delta{Table: "kv", Op: DeltaUpdate, Row: kvTuple(k, k+1), Key: key(k)})
	}
	ds = append(ds, Delta{Table: "kv", Op: DeltaDelete, Key: key(5)}, Delta{Table: "kv", Op: DeltaDelete, Key: key(6)})
	for k := int64(100); k < 104; k++ {
		ds = append(ds, Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(k, k)}, Delta{Table: "kv", Op: DeltaDelete, Key: key(k)})
	}
	batch("updates, deletes and fresh pairs", ds...)

	// Re-insert over the earlier delete of 5, then delete it: Table 4 row
	// 2 pops the slots the re-insert pushed (nVNL) or restores the delete
	// it overwrote (2VNL), lowering the tuple the re-insert made the
	// carrier.
	before := s.metrics.cellT4R2InsPop.Value()
	batch("re-insert and delete", Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(5, 50)}, Delta{Table: "kv", Op: DeltaDelete, Key: key(5)})
	if s.metrics.cellT4R2InsPop.Value() == before {
		t.Fatal("the batch never reached Table 4 row 2's pop")
	}

	// GC removes the deleted tuples 5 and 6; in 2VNL they carry the mark.
	if st := s.GC(); st.Removed != 2 {
		t.Fatalf("GC removed %d tuples, want 2", st.Removed)
	}
	if assertWatermark(t, s, vt); t.Failed() {
		t.Fatal("watermark diverged after GC")
	}

	// n−1 updates of key 7 in batches of their own make it the only
	// carrier. A replica then replays its physical delete: the removal only
	// marks the mark stale, and SettleReplayed recomputes it.
	for i := 1; i < n; i++ {
		batch("update the carrier", Delta{Table: "kv", Op: DeltaUpdate, Row: kvTuple(7, int64(70+i)), Key: key(7)})
	}
	var rid storage.RID
	var carrier catalog.Tuple
	vt.tbl.Scan(func(r storage.RID, tu catalog.Tuple) bool {
		if carrier == nil || vt.ext.TupleVN(tu, n-1) > vt.ext.TupleVN(carrier, n-1) {
			rid, carrier = r, tu
		}
		return true
	})
	if err := vt.Storage().Delete(rid); err != nil {
		t.Fatal(err)
	}
	vt.NoteReplayedRemove(carrier)
	if !vt.hwStale.Load() {
		t.Fatal("removing the carrier did not mark the mark stale")
	}
	s.SettleReplayed()
	if assertWatermark(t, s, vt); t.Failed() {
		t.Fatal("watermark diverged after a replayed removal")
	}
}

// TestOldestHWRecomputesOncePerBatch counts the in-place walks that
// recompute the watermark (core_oldest_hw_recomputes_total). A fresh
// insert/delete pair removes a tuple that carries the mark only in 2VNL,
// where its one version slot is the oldest: there a batch of k pairs
// recomputes once, not k times; in 3VNL its oldest slot is empty and a batch
// recomputes nothing. Single operations recompute once, at Commit. With
// workers > 1 the batch is split by key into that many ApplyBatch calls
// (applySplit), and each call recomputes at most once.
func TestOldestHWRecomputesOncePerBatch(t *testing.T) {
	const k = 16
	for _, tc := range []struct {
		n, workers int   // workers 0: single operations
		want       int64 // per ApplyBatch call, or per Commit
	}{
		{2, 1, 1}, {2, 2, 1}, {2, 0, 1},
		{3, 1, 0}, {3, 2, 0}, {3, 0, 0},
	} {
		name := fmt.Sprintf("n=%d/single", tc.n)
		if tc.workers > 0 {
			name = fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers)
		}
		t.Run(name, func(t *testing.T) {
			s := newStore(t, tc.n, func(o *Options) { o.Metrics = obs.NewRegistry() })
			if _, err := s.CreateTable(kvSchema()); err != nil {
				t.Fatal(err)
			}
			// History first, so that the mark is above zero.
			m := mustMaint(t, s)
			for i := int64(0); i < 4; i++ {
				if err := m.Insert("kv", kvTuple(i, i)); err != nil {
					t.Fatal(err)
				}
			}
			commit(t, m)
			m = mustMaint(t, s)
			if _, err := m.Exec(`UPDATE kv SET v = v + 1`, nil); err != nil {
				t.Fatal(err)
			}
			commit(t, m)

			walks := s.metrics.hwRecomputes.Value()
			m = mustMaint(t, s)
			var ds []Delta
			for i := int64(100); i < 100+k; i++ {
				ds = append(ds, Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(i, i)},
					Delta{Table: "kv", Op: DeltaDelete, Key: catalog.Tuple{catalog.NewInt(i)}})
			}
			want := tc.want
			if tc.workers > 0 {
				calls := applySplit(t, m, ds, tc.workers, func() {})
				if calls != tc.workers {
					t.Fatalf("%d fresh pairs split into %d partitions, want %d", k, calls, tc.workers)
				}
				want *= int64(calls)
			} else {
				for _, d := range ds {
					var err error
					if d.Op == DeltaInsert {
						err = m.Insert("kv", d.Row)
					} else {
						_, err = m.DeleteKey("kv", d.Key)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				// Before Commit the mark may still be stale-high.
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			commit(t, m)
			if got := s.metrics.hwRecomputes.Value() - walks; got != want {
				t.Fatalf("%d fresh pairs recomputed the watermark %d times, want %d", k, got, want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionGetSurfacesHeapError is the regression test for the swallowed
// storage error: when the key index points at a tuple the heap cannot
// serve, Get must report the failure, not mask it as "tuple not visible".
func TestSessionGetSurfacesHeapError(t *testing.T) {
	s := newStore(t, 2)
	vt, err := s.CreateTable(kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	sess := s.BeginSession()
	defer sess.Close()

	key := catalog.Tuple{catalog.NewInt(1)}
	rid, ok := vt.Storage().SearchKey(key)
	if !ok {
		t.Fatal("key not indexed")
	}
	// Corrupt the table: remove the tuple from the heap directly, leaving
	// the index entry dangling.
	if err := vt.Storage().Heap().Delete(rid); err != nil {
		t.Fatal(err)
	}
	_, visible, err := sess.Get("kv", key)
	if err == nil {
		t.Fatal("Get over a dangling index entry returned no error")
	}
	if visible {
		t.Error("Get reported a visible tuple it could not read")
	}
	if !errors.Is(err, storage.ErrNoSuchTuple) {
		t.Errorf("Get error does not wrap the storage cause: %v", err)
	}
	if !strings.Contains(err.Error(), "kv") {
		t.Errorf("Get error does not name the table: %v", err)
	}
}

// TestCommitSurfacesVersionRelationError covers the setGlobalsLocked fix
// in relation-backed mode: a failed Version-relation write surfaces from
// Commit, nothing is installed, and the transaction stays active so the
// caller can repair and retry.
func TestCommitSurfacesVersionRelationError(t *testing.T) {
	d := db.Open(db.Options{})
	s, err := Open(d, Options{VersionRelation: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Break the global state's backing: delete the single Version tuple.
	var rid storage.RID
	s.versionTbl.Scan(func(r storage.RID, _ catalog.Tuple) bool { rid = r; return false })
	if err := s.versionTbl.Delete(rid); err != nil {
		t.Fatal(err)
	}
	err = m.Commit()
	if err == nil {
		t.Fatal("Commit with a broken Version relation succeeded")
	}
	if !strings.Contains(err.Error(), "installing version") {
		t.Errorf("Commit error = %v", err)
	}
	// Repair the relation; nothing was installed, so the transaction is
	// still the active one (the restored tuple carries active = true).
	if _, err := s.versionTbl.Insert(catalog.Tuple{catalog.NewInt(1), catalog.NewBool(true)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginMaintenance(); !errors.Is(err, ErrMaintenanceActive) {
		t.Fatalf("BeginMaintenance after failed commit = %v, want ErrMaintenanceActive", err)
	}
	// Retry the same transaction.
	commit(t, m)
	if got := s.CurrentVN(); got != 2 {
		t.Errorf("CurrentVN after retried commit = %d, want 2", got)
	}

	// The begin path surfaces the same failure class.
	s.versionTbl.Scan(func(r storage.RID, _ catalog.Tuple) bool { rid = r; return false })
	if err := s.versionTbl.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginMaintenance(); err == nil || !strings.Contains(err.Error(), "raising maintenanceActive") {
		t.Fatalf("BeginMaintenance with a broken Version relation = %v", err)
	}
	if _, err := s.versionTbl.Insert(catalog.Tuple{catalog.NewInt(2), catalog.NewBool(false)}); err != nil {
		t.Fatal(err)
	}
	m = mustMaint(t, s)
	commit(t, m)
	if got := s.CurrentVN(); got != 3 {
		t.Errorf("CurrentVN after repair = %d, want 3", got)
	}
}

// TestAdoptTableFailureLeavesOriginalIntact injects a mid-load failure
// into AdoptTable and checks the create-and-load-first ordering: the
// user's table is untouched, nothing is registered, and the half-built
// replacement is cleaned up — then a retry succeeds.
func TestAdoptTableFailureLeavesOriginalIntact(t *testing.T) {
	s := newStore(t, 2)
	d := s.DB()
	if _, err := d.Exec(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)`, nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected load failure")
	s.adoptLoadHook = func(i int) error {
		if i == 1 {
			return boom
		}
		return nil
	}
	if _, err := s.AdoptTable("kv"); !errors.Is(err, boom) {
		t.Fatalf("AdoptTable with failing load = %v, want injected failure", err)
	}
	// The original table survives with its data.
	old, err := d.TableOf("kv")
	if err != nil {
		t.Fatalf("original table gone after failed adoption: %v", err)
	}
	if old.Len() != 3 {
		t.Errorf("original table has %d tuples after failed adoption", old.Len())
	}
	rows, err := d.Query(`SELECT SUM(v) FROM kv`, nil)
	if err != nil || rows.Tuples[0][0].Int() != 60 {
		t.Errorf("original table query after failed adoption: %v %v", err, rows)
	}
	// Nothing registered, no temporary table left behind.
	if _, err := s.Table("kv"); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("failed adoption registered the table: %v", err)
	}
	if _, err := d.TableOf("kv__adopting"); err == nil {
		t.Error("temporary adoption table left behind")
	}

	// Retry without the fault: full success, replacement under the old
	// name.
	s.adoptLoadHook = nil
	vt, err := s.AdoptTable("kv")
	if err != nil {
		t.Fatal(err)
	}
	if vt.Len() != 3 {
		t.Errorf("adopted %d tuples, want 3", vt.Len())
	}
	if _, err := d.TableOf("kv__adopting"); err == nil {
		t.Error("temporary adoption table left behind after success")
	}
	sess := s.BeginSession()
	defer sess.Close()
	rows, err = sess.Query(`SELECT SUM(v) FROM kv`, nil)
	if err != nil || rows.Tuples[0][0].Int() != 60 {
		t.Fatalf("adopted query: %v %v", err, rows)
	}
	assertWatermark(t, s, vt)
}

// Distinct INT keys above 2^53 stay distinct: float64 cannot tell 2^53 from
// 2^53+1, so an INT comparison that went through it would refuse the second
// key as a duplicate, answer a point read with both rows and fold both into
// one group.
func TestIntKeysAbove2Pow53StayDistinct(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	const big = int64(1) << 53
	m := mustMaint(t, s)
	for i, k := range []int64{big, big + 1} {
		if err := m.Insert("kv", kvTuple(k, int64(i))); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	commit(t, m)
	sess := s.BeginSession()
	defer sess.Close()
	for i, k := range []int64{big, big + 1} {
		params := map[string]catalog.Value{"k": catalog.NewInt(k)}
		for _, q := range []string{
			`SELECT k, v FROM kv WHERE k = :k`,
			`SELECT k, v FROM kv WHERE k = :k ORDER BY v`, // the tree-walker
		} {
			rows, err := sess.Query(q, params)
			if err != nil {
				t.Fatalf("%s with k = %d: %v", q, k, err)
			}
			if len(rows.Tuples) != 1 || rows.Tuples[0][0].Int() != k || rows.Tuples[0][1].Int() != int64(i) {
				t.Errorf("%s with k = %d: got %v", q, k, rows.Tuples)
			}
		}
	}
	rows, err := sess.Query(`SELECT k, COUNT(*) FROM kv GROUP BY k`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Tuples) != 2 {
		t.Errorf("GROUP BY k: %d groups, want 2: %v", len(rows.Tuples), rows.Tuples)
	}
}
