package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// TestPerTupleExpiryOutlivesGlobalCheck demonstrates §3.2's two expiration
// alternatives. After the sessions begin, one maintenance transaction
// touches the cold table (reconstructible: its tuples carry tupleVN =
// sessionVN+1), and later transactions churn only a hot table. The global
// check expires any session that overlapped two transactions regardless of
// what they touched; the per-tuple discipline keeps the session serving
// correct answers over the cold table because every cold tuple is still
// reconstructible.
func TestPerTupleExpiryOutlivesGlobalCheck(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	hotSchema := catalog.MustSchema("hot", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
	if _, err := s.CreateTable(hotSchema); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < 4; k++ {
		if err := m.Insert("kv", kvTuple(k, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Insert("hot", kvTuple(1, 1)); err != nil {
		t.Fatal(err)
	}
	commit(t, m) // currentVN = 2

	global := s.BeginSession()
	optim := s.BeginSessionPerTupleExpiry()
	defer global.Close()
	defer optim.Close()

	churn := func(table string, k, v int64) {
		m := mustMaint(t, s)
		if _, err := m.UpdateKey(table, catalog.Tuple{catalog.NewInt(k)},
			func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(v); return c }); err != nil {
			t.Fatal(err)
		}
		commit(t, m)
	}
	// VN 3 touches the cold table once (tupleVN = 3 = sessionVN+1, still
	// reconstructible for sessionVN 2); VN 4 and 5 churn only `hot`.
	churn("kv", 1, 111)
	churn("hot", 1, 2)
	churn("hot", 1, 3)

	// The global check has expired (three txns overlapped)...
	if err := global.Check(); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("global-check session: %v, want expired", err)
	}
	// ...but the per-tuple session still reads a correct version-2 state
	// of the cold table — including the pre-update value of the touched
	// tuple.
	rows, err := optim.Query(`SELECT SUM(v), COUNT(*) FROM kv`, nil)
	if err != nil {
		t.Fatalf("per-tuple query: %v", err)
	}
	if rows.Tuples[0][0].Int() != 400 || rows.Tuples[0][1].Int() != 4 {
		t.Errorf("per-tuple view = %v, want the version-2 state (400/4)", rows.Tuples[0])
	}
	// A second touch of the cold table's tuple makes it unreconstructible
	// for the session: now the per-tuple discipline expires too.
	churn("kv", 1, 112)
	if _, err := optim.Query(`SELECT SUM(v) FROM kv`, nil); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("per-tuple query after double-touch: %v, want expired", err)
	}
	if err := optim.Check(); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("per-tuple Check after double-touch: %v, want expired", err)
	}
}

// TestPerTupleExpiryQueryScopedProbe: the query path probes only the
// tables the query touches, so churn in another table does not expire a
// query over a cold one.
func TestPerTupleExpiryQueryScopedProbe(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	hot := catalog.MustSchema("hot", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
	if _, err := s.CreateTable(hot); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("hot", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	sess := s.BeginSessionPerTupleExpiry()
	defer sess.Close()
	// Hammer the hot table twice.
	for i := 0; i < 2; i++ {
		m := mustMaint(t, s)
		if _, err := m.UpdateKey("hot", catalog.Tuple{catalog.NewInt(1)},
			func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(int64(i)); return c }); err != nil {
			t.Fatal(err)
		}
		commit(t, m)
	}
	// Queries over the cold table still succeed...
	if _, err := sess.Query(`SELECT v FROM kv`, nil); err != nil {
		t.Errorf("cold-table query: %v", err)
	}
	// ...while queries touching the hot table report expiration.
	if _, err := sess.Query(`SELECT v FROM hot`, nil); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("hot-table query: %v, want expired", err)
	}
	// The full Check (all tables) is expired.
	if err := sess.Check(); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("Check: %v, want expired", err)
	}
}

// TestDimensionTableNoUpdatableColumns: warehouses also hold dimension
// tables whose attributes never change — rows are only inserted and
// deleted. The 2VNL extension then adds no pre-update columns at all
// (overhead = 5 bytes of bookkeeping), the rewrite adds only the
// visibility predicate, and maintenance updates are correctly rejected.
func TestDimensionTableNoUpdatableColumns(t *testing.T) {
	s := newStore(t, 2)
	dim := catalog.MustSchema("Stores", []catalog.Column{
		{Name: "store_id", Type: catalog.TypeInt, Length: 4},
		{Name: "city", Type: catalog.TypeString, Length: 20},
	}, "store_id")
	vt, err := s.CreateTable(dim)
	if err != nil {
		t.Fatal(err)
	}
	base, ext, _ := vt.Ext().Overhead()
	if ext-base != 5 { // tupleVN(4) + operation(1), no pre-update columns
		t.Errorf("dimension overhead = %d bytes, want 5", ext-base)
	}
	m := mustMaint(t, s)
	if err := m.Insert("Stores", catalog.Tuple{catalog.NewInt(1), catalog.NewString("San Jose")}); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("Stores", catalog.Tuple{catalog.NewInt(2), catalog.NewString("Berkeley")}); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	sess := s.BeginSession() // VN 2
	defer sess.Close()

	m = mustMaint(t, s)
	// Updates of non-updatable columns are rejected...
	if _, err := m.UpdateKey("Stores", catalog.Tuple{catalog.NewInt(1)},
		func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewString("Oakland"); return c }); err == nil {
		t.Error("update of a non-updatable dimension column accepted")
	}
	// ...while logical deletes work and stay invisible to the session.
	if _, err := m.DeleteKey("Stores", catalog.Tuple{catalog.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	rows, err := sess.Query(`SELECT store_id, city FROM Stores ORDER BY store_id`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Errorf("VN-2 session sees %d stores, want 2 (delete is in VN 3)", rows.Len())
	}
	// The rewrite contains the visibility predicate but no CASE.
	rw, err := sess.Rewrite(`SELECT city FROM Stores`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rw, "CASE") {
		t.Errorf("dimension rewrite contains CASE: %s", rw)
	}
	if !strings.Contains(rw, "operation <> 'delete'") {
		t.Errorf("dimension rewrite missing visibility predicate: %s", rw)
	}
	fresh := s.BeginSession()
	defer fresh.Close()
	rows, _ = fresh.Query(`SELECT COUNT(*) FROM Stores`, nil)
	if rows.Tuples[0][0].Int() != 1 {
		t.Errorf("VN-3 store count = %v", rows.Tuples[0])
	}
}

// TestPerTupleExpiryHonoursLoglessRollbackFloor: the optimistic discipline
// still respects the expire floor raised by a rollback.
func TestPerTupleExpiryHonoursLoglessRollbackFloor(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	commit(t, m) // VN 2
	// An older session (simulate VN 1).
	older := &Session{store: s, vn: 1, perTuple: true}
	s.sessions.add(older)
	defer older.Close()

	mb := mustMaint(t, s)
	if _, err := mb.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
		func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(99); return c }); err != nil {
		t.Fatal(err)
	}
	if err := mb.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := older.Check(); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("pre-floor per-tuple session: %v, want expired", err)
	}
	if _, err := older.Query(`SELECT v FROM kv`, nil); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("pre-floor per-tuple query: %v, want expired", err)
	}
}

// TestRollbackDuringQueryExpires is the schedule behind a wrong answer that
// once passed both expiry checks: a session at s; s+1 commits v 100 → 200;
// s+2 begins and sets v → 300; the session's query reads; s+2 aborts; the
// post-query check runs. The query read the tuple with s+2's update in it,
// and the §7 revert leaves slot 1 holding (s+1, ·), so neither the tuple nor
// the version state can serve s any more. The check must expire the session
// rather than return what the query read — at n = 2 that is 200, where the
// truth at s is 100. s+2 begins after the pre-query check (preReadHook),
// which would otherwise refuse a global-discipline session, and aborts after
// the read (midQueryHook).
//
// The other schedule runs all of s+2 between the pre-query check and the
// read, so the read meets the reverted tuple itself. Scan and Get detect
// expiry per tuple, which a revert defeats, so they too must test the floor
// after the read.
func TestRollbackDuringQueryExpires(t *testing.T) {
	reads := map[string]func(*Session) (any, error){
		"Query": func(sess *Session) (any, error) {
			rows, err := sess.Query(`SELECT v FROM kv`, nil)
			if err != nil {
				return nil, err
			}
			return rows.Tuples, nil
		},
		"Scan": func(sess *Session) (any, error) {
			var got []catalog.Tuple
			err := sess.Scan("kv", func(t catalog.Tuple) bool { got = append(got, t); return true })
			return got, err
		},
		"Get": func(sess *Session) (any, error) {
			tu, _, err := sess.Get("kv", catalog.Tuple{catalog.NewInt(1)})
			return tu, err
		},
	}
	for _, n := range []int{2, 3} {
		for _, perTuple := range []bool{false, true} {
			for _, c := range []struct{ read, abort string }{
				{"Query", "mid-read"}, {"Query", "before-read"}, {"Scan", "before-read"}, {"Get", "before-read"},
			} {
				t.Run(fmt.Sprintf("n=%d/perTuple=%v/%s/abort-%s", n, perTuple, c.read, c.abort), func(t *testing.T) {
					s := newStore(t, n)
					if _, err := s.CreateTable(kvSchema()); err != nil {
						t.Fatal(err)
					}
					m := mustMaint(t, s)
					if err := m.Insert("kv", kvTuple(1, 100)); err != nil {
						t.Fatal(err)
					}
					commit(t, m)
					sess := s.beginSession(perTuple) // s
					defer sess.Close()
					begin := func(v int64) *Maintenance {
						t.Helper()
						m := mustMaint(t, s)
						if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
							func(catalog.Tuple) catalog.Tuple { return kvTuple(1, v) }); err != nil {
							t.Fatal(err)
						}
						return m
					}
					commit(t, begin(200)) // s+1
					rollback := func(m *Maintenance) {
						t.Helper()
						if err := m.Rollback(); err != nil {
							t.Fatal(err)
						}
					}
					if c.abort == "mid-read" {
						var m *Maintenance
						sess.preReadHook = func() { m = begin(300) } // s+2
						sess.midQueryHook = func() { rollback(m) }
					} else {
						sess.preReadHook = func() { rollback(begin(300)) }
					}
					got, err := reads[c.read](sess)
					if !errors.Is(err, ErrSessionExpired) {
						if err != nil {
							got = err
						}
						t.Fatalf("session at VN %d answered %v; want ErrSessionExpired", sess.VN(), got)
					}
				})
			}
		}
	}
}
