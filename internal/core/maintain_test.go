package core

import (
	"errors"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// TestMaintenanceExclusive enforces the one-writer-at-a-time protocol.
func TestMaintenanceExclusive(t *testing.T) {
	s := newStore(t, 2)
	m := mustMaint(t, s)
	if _, err := s.BeginMaintenance(); !errors.Is(err, ErrMaintenanceActive) {
		t.Errorf("second BeginMaintenance = %v", err)
	}
	commit(t, m)
	m2 := mustMaint(t, s)
	if m2.VN() != 3 {
		t.Errorf("next maintenanceVN = %d, want 3", m2.VN())
	}
	if err := m2.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Version numbers are not consumed by aborts.
	m3 := mustMaint(t, s)
	if m3.VN() != 3 {
		t.Errorf("maintenanceVN after abort = %d, want 3", m3.VN())
	}
	commit(t, m3)
	// Finished transactions reject further work.
	if err := m3.Commit(); !errors.Is(err, ErrMaintenanceDone) {
		t.Errorf("double commit = %v", err)
	}
	if err := m3.Rollback(); !errors.Is(err, ErrMaintenanceDone) {
		t.Errorf("rollback after commit = %v", err)
	}
	if err := m3.Insert("kv", kvTuple(1, 1)); !errors.Is(err, ErrMaintenanceDone) {
		t.Errorf("insert after commit = %v", err)
	}
}

// snapshotAll captures the full physical state of a table.
func snapshotAll(t *testing.T, s *Store, table string) map[string]string {
	t.Helper()
	vt, err := s.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	vt.Storage().Scan(func(rid storage.RID, tu catalog.Tuple) bool {
		out[rid.String()] = tu.String()
		return true
	})
	return out
}

func sameSnapshot(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// In 2VNL, re-inserting over an earlier delete and deleting again in one
// transaction nets to nothing: the tuple goes back to the delete it was, so
// a rollback or a commit leaves what a session already saw. (It used to be
// deleted physically, losing the pre-delete values a session one version
// back still reads.)
func TestReinsertThenDeleteRestoresTombstone(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	key := catalog.Tuple{catalog.NewInt(1)}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	m = mustMaint(t, s)
	if _, err := m.DeleteKey("kv", key); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	before := snapshotAll(t, s, "kv")
	for _, finish := range []func(*Maintenance) error{(*Maintenance).Rollback, (*Maintenance).Commit} {
		m = mustMaint(t, s)
		if err := m.Insert("kv", kvTuple(1, 99)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DeleteKey("kv", key); err != nil {
			t.Fatal(err)
		}
		if err := finish(m); err != nil {
			t.Fatal(err)
		}
		if after := snapshotAll(t, s, "kv"); !sameSnapshot(before, after) {
			t.Fatalf("re-insert then delete changed the tuple:\nbefore: %v\nafter:  %v", before, after)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRollbackLogless verifies the §7-style logless rollback: the current
// version is restored using only in-tuple information, new sessions read
// correct data, sessions older than currentVN are expired, and the store is
// ready for the next transaction at the version the aborted one would have
// taken.
func TestRollbackLogless(t *testing.T) {
	s := newStore(t, 2)
	setupFigure4(t, s).Close()
	oldSess := s.BeginSession() // VN 4 — current, should survive
	defer oldSess.Close()

	currentView := func(sess *Session) map[string]int64 {
		out := map[string]int64{}
		err := sess.Scan("DailySales", func(b catalog.Tuple) bool {
			out[b[0].Str()+"/"+b[2].Str()+"/"+b[3].String()] = b[4].Int()
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := currentView(oldSess)

	m := mustMaint(t, s)
	// Touch everything: update, delete, insert, insert-over-delete, and a
	// repeated update.
	if _, err := m.Exec(`UPDATE DailySales SET total_sales = total_sales * 2 WHERE state = 'CA'`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exec(`DELETE FROM DailySales WHERE city = 'San Jose' AND date = '10/15/96'`, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("DailySales", salesTuple(t, "Fresno", "skis", "10/16/96", 9)); err != nil {
		t.Fatal(err)
	}
	// Resurrect the logically-deleted Novato tuple.
	if err := m.Insert("DailySales", salesTuple(t, "Novato", "rollerblades", "10/13/96", 777)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exec(`UPDATE DailySales SET total_sales = 1 WHERE city = 'San Jose'`, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	if s.CurrentVN() != 4 || s.MaintenanceActive() {
		t.Errorf("globals after logless rollback: VN=%d active=%v", s.CurrentVN(), s.MaintenanceActive())
	}
	// A fresh session sees exactly the pre-transaction current version.
	fresh := s.BeginSession()
	defer fresh.Close()
	got := currentView(fresh)
	if len(got) != len(want) {
		t.Fatalf("logless rollback: %d visible tuples, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("logless rollback: %s = %d, want %d", k, got[k], v)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The VN-4 session (equal to currentVN) survives...
	if err := oldSess.Check(); err != nil {
		t.Errorf("currentVN session expired by logless rollback: %v", err)
	}
	// ...but the rollback raised the expire floor: an older session (n = 2
	// has no room for a real one, so simulate it) is now expired.
	older := &Session{store: s, vn: 3}
	s.sessions.add(older)
	if err := older.Check(); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("pre-currentVN session after logless rollback: %v, want expired", err)
	}
	older.Close()
	// The aborted transaction consumed no version number, and the store is
	// immediately usable for the next one.
	m2 := mustMaint(t, s)
	if m2.VN() != 5 {
		t.Errorf("next VN = %d, want 5", m2.VN())
	}
	if _, err := m2.Exec(`UPDATE DailySales SET total_sales = total_sales + 1 WHERE state = 'CA'`, nil); err != nil {
		t.Fatal(err)
	}
	commit(t, m2)
	after := s.BeginSession()
	defer after.Close()
	if n := len(currentView(after)); n != len(want) {
		t.Errorf("after the next commit: %d visible tuples, want %d", n, len(want))
	}
}

// TestNetEffectAblation shows why §3.3's net-effect rule matters: with the
// folding disabled, a reader of the previous version is shown a tuple that
// should not exist in its version.
func TestNetEffectAblation(t *testing.T) {
	run := func(netEffect bool) (sawGhost bool) {
		s := newStore(t, 2)
		if _, err := s.CreateTable(kvSchema()); err != nil {
			t.Fatal(err)
		}
		m, err := s.beginMaintenance(netEffect)
		if err != nil {
			t.Fatal(err)
		}
		// Insert then update in one transaction: net effect must stay
		// insert. If it is (incorrectly) recorded as update, a reader of
		// the pre-update version reads the NULL pre-update attributes of a
		// tuple that did not exist in its version.
		if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
			func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(11); return c }); err != nil {
			t.Fatal(err)
		}
		// Reader at VN 1 (the version before this transaction).
		vt, _ := s.Table("kv")
		vt.Storage().Scan(func(_ storage.RID, tu catalog.Tuple) bool {
			_, visible, err := vt.Ext().ReadAsOf(tu, 1)
			if err == nil && visible {
				sawGhost = true
			}
			return true
		})
		commit(t, m)
		return sawGhost
	}
	if run(true) {
		t.Error("with net-effect folding, the VN-1 reader must ignore the inserted tuple")
	}
	if !run(false) {
		t.Error("ablation inert: disabling net-effect folding should surface a ghost tuple to the VN-1 reader")
	}
}

// TestMaintenanceExecSQLExamples runs the paper's §4.2 statement-rewrite
// examples end to end through the SQL interface: the insert with key
// conflict (Example 4.2), the cursor update (Example 4.3), and the cursor
// delete (Example 4.4).
func TestMaintenanceExecSQLExamples(t *testing.T) {
	s := newStore(t, 2)
	setupFigure4(t, s).Close()

	m := mustMaint(t, s) // VN 5
	// Example 4.3: add 1000 to San Jose sales on a date. (The paper uses
	// 10/13/96; our Figure-4 state has San Jose rows on 10/14 and 10/15,
	// so use 10/14.)
	n, err := m.Exec(`UPDATE DailySales SET total_sales = total_sales + 1000
		WHERE city = 'San Jose' AND date = '10/14/96'`, nil)
	if err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	// Example 4.2: insert with a key conflict against the logically
	// deleted Novato tuple.
	n, err = m.Exec(`INSERT INTO DailySales VALUES ('Novato', 'CA', 'rollerblades', '10/13/96', 6000)`, nil)
	if err != nil || n != 1 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	// Example 4.4: delete by predicate.
	n, err = m.Exec(`DELETE FROM DailySales WHERE city = 'Berkeley'`, nil)
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	// The maintenance transaction reads its own writes (current version).
	rows, err := m.Query(`SELECT SUM(total_sales) FROM DailySales`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 11000 (SJ 10/14) + 1500 (SJ 10/15) + 6000 (Novato) = 18500; Berkeley deleted.
	if got := rows.Tuples[0][0].Int(); got != 18500 {
		t.Errorf("maintenance view sum = %d, want 18500", got)
	}
	st := m.Stats()
	if st.LogicalInserts != 1 || st.LogicalUpdates != 1 || st.LogicalDeletes != 1 {
		t.Errorf("logical stats: %+v", st)
	}
	if st.PhysicalInserts != 0 {
		t.Errorf("the conflicting insert must be a physical update: %+v", st)
	}
	commit(t, m)

	// Parameters flow through maintenance SQL too.
	m = mustMaint(t, s)
	n, err = m.Exec(`UPDATE DailySales SET total_sales = total_sales + :delta WHERE city = :c`,
		map[string]catalog.Value{"delta": catalog.NewInt(5), "c": catalog.NewString("Novato")})
	if err != nil || n != 1 {
		t.Fatalf("param update: n=%d err=%v", n, err)
	}
	if _, err := m.Exec(`SELECT 1`, nil); err == nil {
		t.Error("maintenance Exec accepted a SELECT")
	}
	commit(t, m)
}

// TestGC verifies garbage collection of logically-deleted tuples honours
// active sessions (§7 future work).
func TestGC(t *testing.T) {
	s := newStore(t, 2)
	setupFigure4(t, s).Close() // Novato is logically deleted at VN 4
	if dead := s.DeadTuples()["DailySales"]; dead != 1 {
		t.Fatalf("dead tuples = %d, want 1", dead)
	}
	// A session at VN 3 still needs the deleted Novato tuple (it reads the
	// pre-delete version).
	holdout := &Session{store: s, vn: 3}
	s.sessions.add(holdout)
	if st := s.GC(); st.Removed != 0 {
		t.Errorf("GC removed %d tuples while a VN-3 session needs them", st.Removed)
	}
	holdout.Close()
	// Now reclaimable: every remaining reader has sessionVN >= 4.
	st := s.GC()
	if st.Removed != 1 || st.BytesReclaimed != 51 {
		t.Errorf("GC = %+v, want 1 tuple / 51 bytes", st)
	}
	if dead := s.DeadTuples()["DailySales"]; dead != 0 {
		t.Errorf("dead tuples after GC = %d", dead)
	}
	// The key is free for fresh inserts again.
	m := mustMaint(t, s)
	if err := m.Insert("DailySales", salesTuple(t, "Novato", "rollerblades", "10/13/96", 1)); err != nil {
		t.Errorf("insert after GC: %v", err)
	}
	if st := m.Stats(); st.PhysicalInserts != 1 {
		t.Errorf("insert after GC should be physical: %+v", st)
	}
	// GC is a no-op while maintenance is active.
	if st := s.GC(); st.Scanned != 0 {
		t.Errorf("GC ran during maintenance: %+v", st)
	}
	commit(t, m)
}

// TestAdoptTable brings a populated plain table under 2VNL management.
func TestAdoptTable(t *testing.T) {
	s := newStore(t, 2)
	d := s.DB()
	if _, err := d.Exec(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO kv VALUES (1, 10), (2, 20)`, nil); err != nil {
		t.Fatal(err)
	}
	vt, err := s.AdoptTable("kv")
	if err != nil {
		t.Fatal(err)
	}
	if vt.Len() != 2 {
		t.Fatalf("adopted %d tuples", vt.Len())
	}
	// Adopted tuples are visible to every session.
	sess := s.BeginSession()
	defer sess.Close()
	rows, err := sess.Query(`SELECT SUM(v) FROM kv`, nil)
	if err != nil || rows.Tuples[0][0].Int() != 30 {
		t.Fatalf("adopted query: %v %v", err, rows)
	}
	// And maintainable.
	m := mustMaint(t, s)
	if _, err := m.Exec(`UPDATE kv SET v = v + 1 WHERE k = 1`, nil); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	s2 := s.BeginSession()
	defer s2.Close()
	rows, _ = s2.Query(`SELECT SUM(v) FROM kv`, nil)
	if rows.Tuples[0][0].Int() != 31 {
		t.Errorf("after maintenance on adopted table: %v", rows.Tuples[0])
	}
	// Adopting a missing table fails.
	if _, err := s.AdoptTable("missing"); err == nil {
		t.Error("adopted a missing table")
	}
}

// TestCreateTableSQLAndReservedNames covers the SQL DDL path and the
// reserved-column collision check.
func TestCreateTableSQLAndReservedNames(t *testing.T) {
	s := newStore(t, 2)
	vt, err := s.CreateTableSQL(`CREATE TABLE t (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Extended().ColIndex("pre_v") < 0 {
		t.Errorf("extended schema missing pre_v: %v", vt.Extended())
	}
	if _, err := s.CreateTableSQL(`CREATE TABLE bad (tupleVN INT, v INT UPDATABLE)`); err == nil {
		t.Error("reserved column name accepted")
	}
	if _, err := s.CreateTableSQL(`CREATE TABLE bad2 (k INT, pre_v INT, v INT UPDATABLE)`); err == nil {
		t.Error("pre_-colliding column name accepted")
	}
	if _, err := s.CreateTableSQL(`SELECT 1`); err == nil {
		t.Error("non-DDL accepted")
	}
	if _, err := Open(s.DB(), Options{N: 1}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ExtendSchema(kvSchema(), 1); err == nil {
		t.Error("ExtendSchema n=1 accepted")
	}
}

// TestKeylessTable exercises the always-row-3 insert path and scan-based
// maintenance on a relation without a unique key.
func TestKeylessTable(t *testing.T) {
	s := newStore(t, 2)
	schema := catalog.MustSchema("log", []catalog.Column{
		{Name: "tag", Type: catalog.TypeString, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	})
	if _, err := s.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for i := int64(0); i < 3; i++ {
		if err := m.Insert("log", catalog.Tuple{catalog.NewString("a"), catalog.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate rows are fine without a key.
	if err := m.Insert("log", catalog.Tuple{catalog.NewString("a"), catalog.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	m = mustMaint(t, s)
	n, err := m.Exec(`UPDATE log SET v = v + 100 WHERE tag = 'a'`, nil)
	if err != nil || n != 4 {
		t.Fatalf("keyless update: n=%d err=%v", n, err)
	}
	// Values are now 100, 101, 102, 100: delete the two >= 101.
	n, err = m.Exec(`DELETE FROM log WHERE v >= 101`, nil)
	if err != nil || n != 2 {
		t.Fatalf("keyless delete: n=%d err=%v", n, err)
	}
	commit(t, m)
	sess := s.BeginSession()
	defer sess.Close()
	rows, err := sess.Query(`SELECT COUNT(*), SUM(v) FROM log`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Tuples[0][0].Int() != 2 || rows.Tuples[0][1].Int() != 200 {
		t.Errorf("keyless final state: %v", rows.Tuples[0])
	}
}

// TestUpdateRejectsKeyChange: maintenance updates may only change updatable
// attributes.
func TestUpdateRejectsKeyChange(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	m = mustMaint(t, s)
	_, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)}, func(c catalog.Tuple) catalog.Tuple {
		c[0] = catalog.NewInt(2) // illegal: k is not updatable
		return c
	})
	if err == nil {
		t.Error("update of non-updatable column accepted")
	}
	commit(t, m)
}
