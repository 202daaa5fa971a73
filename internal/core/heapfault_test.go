package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/catalog"
)

// errCorrupt is the error the writeFault seam injects.
var errCorrupt = errors.New("heap corrupt")

// failKey makes the store's writeFault seam fail the next write of the tuple
// of table kv whose key is *armed, and then disarm (set *armed to -1).
func failKey(s *Store, armed *int64) {
	s.writeFault = func(vt *VTable, tu catalog.Tuple) error {
		if *armed >= 0 && vt.ext.BaseValues(tu)[0].Int() == *armed {
			*armed = -1
			return errCorrupt
		}
		return nil
	}
}

// sessionRows is a session scan of table at currentVN, sorted.
func sessionRows(t *testing.T, s *Store, table string) []string {
	t.Helper()
	sess := s.BeginSession()
	defer sess.Close()
	var rows []string
	if err := sess.Scan(table, func(tu catalog.Tuple) bool {
		rows = append(rows, tu.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(rows)
	return rows
}

// TestHeapFaultPoisonsTransaction: a heap write that fails inside the
// applier's physical insert, update or delete means the engine is corrupt,
// so the transaction is poisoned. So is an Exec statement whose write of a
// later row fails, after it wrote the rows before it. Commit refuses, and
// Rollback brings the store back to the state before the transaction.
func TestHeapFaultPoisonsTransaction(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, tc := range []struct {
			name string
			// setup runs before the fault is armed; fault hits the
			// physical write of key.
			setup, fault func(m *Maintenance) error
			key          int64
		}{
			{"physInsert", nil, func(m *Maintenance) error {
				return m.Insert("kv", kvTuple(10, 100))
			}, 10},
			{"physUpdate", nil, func(m *Maintenance) error {
				_, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)}, func(c catalog.Tuple) catalog.Tuple {
					c[1] = catalog.NewInt(77)
					return c
				})
				return err
			}, 1},
			{"physDelete", func(m *Maintenance) error {
				// A fresh insert: deleting it is Table 4 row 2's physical
				// delete.
				return m.Insert("kv", kvTuple(10, 100))
			}, func(m *Maintenance) error {
				_, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(10)})
				return err
			}, 10},
			{"Exec-UPDATE", nil, func(m *Maintenance) error {
				_, err := m.Exec(`UPDATE kv SET v = v + 1`, nil)
				return err
			}, 2},
			{"Exec-INSERT", nil, func(m *Maintenance) error {
				_, err := m.Exec(`INSERT INTO kv VALUES (10, 1), (11, 2), (12, 3)`, nil)
				return err
			}, 11},
		} {
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				s := newStore(t, n)
				if _, err := s.CreateTable(kvSchema()); err != nil {
					t.Fatal(err)
				}
				armed := int64(-1)
				failKey(s, &armed)
				m := mustMaint(t, s)
				for k := int64(0); k < 4; k++ {
					if err := m.Insert("kv", kvTuple(k, k)); err != nil {
						t.Fatal(err)
					}
				}
				commit(t, m)
				m = mustMaint(t, s)
				if _, err := m.Exec(`UPDATE kv SET v = v + 10 WHERE k < 2`, nil); err != nil {
					t.Fatal(err)
				}
				commit(t, m)
				want := sessionRows(t, s, "kv")

				m = mustMaint(t, s)
				if tc.setup != nil {
					if err := tc.setup(m); err != nil {
						t.Fatal(err)
					}
				}
				armed = tc.key
				if err := tc.fault(m); !errors.Is(err, errCorrupt) {
					t.Fatalf("%s under a heap fault = %v, want the fault", tc.name, err)
				}
				if armed >= 0 {
					t.Fatal("the fault never fired")
				}
				if err := m.Commit(); !errors.Is(err, errCorrupt) {
					t.Fatalf("Commit after a heap fault = %v, want a refusal naming it", err)
				}
				if err := m.Rollback(); err != nil {
					t.Fatal(err)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if got := sessionRows(t, s, "kv"); !slices.Equal(got, want) {
					t.Fatalf("after Rollback the store reads %v, want %v", got, want)
				}
			})
		}
	}
}

// TestInvalidOpDoesNotPoison: a refused logical operation changes no tuple,
// so the transaction stays committable. So does a statement refused while
// Exec evaluates it, before its first write.
func TestInvalidOpDoesNotPoison(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvTuple(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvTuple(1, 2)); !errors.Is(err, ErrInvalidMaintenanceOp) {
		t.Fatalf("insert of a live key = %v, want ErrInvalidMaintenanceOp", err)
	}
	if err := m.Insert("kv", catalog.Tuple{catalog.NewString("x"), catalog.NewInt(1)}); err == nil {
		t.Fatal("insert of a string into an INT key was accepted")
	}
	before := m.Stats()
	for _, stmt := range []string{
		`DELETE FROM kv WHERE 10 / v > 1`,
		`UPDATE kv SET v = 10 / v`,
		`INSERT INTO kv VALUES (3, 3), (4, 1 / 0)`,
		`UPDATE kv SET k = 1`,
	} {
		if n, err := m.Exec(stmt, nil); err == nil || n != 0 {
			t.Fatalf("%s = (%d, %v), want a refusal", stmt, n, err)
		}
	}
	if after := m.Stats(); after != before {
		t.Fatalf("refused statements changed the counters from %+v to %+v", before, after)
	}
	commit(t, m)
	if got, want := sessionRows(t, s, "kv"), []string{kvTuple(1, 1).String(), kvTuple(2, 0).String()}; !slices.Equal(got, want) {
		t.Fatalf("the store reads %v, want %v", got, want)
	}
}

// TestRollbackFaultLeavesItRetryable fails a rollback's revert part-way, on
// its tenth tuple. A revert that skipped the tuple it could not write would
// leave it with tupleVN1 = maintenanceVN, and the next transaction, which
// reuses that VN, would publish the aborted values when it committed. So the
// failed Rollback must report the fault and keep the transaction active,
// Commit must refuse it, and a retry must restore the pre-transaction state.
func TestRollbackFaultLeavesItRetryable(t *testing.T) {
	s := newStore(t, 2)
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
	reverted := 0
	s.writeFault = func(*VTable, catalog.Tuple) error {
		if reverted++; reverted == 10 {
			return errCorrupt
		}
		return nil
	}
	if err := m.Rollback(); !errors.Is(err, errCorrupt) {
		t.Fatalf("Rollback under a heap fault = %v, want the fault", err)
	}
	if !s.MaintenanceActive() {
		t.Fatal("a failed Rollback ended the transaction")
	}
	if err := m.Commit(); err == nil {
		t.Fatal("Commit accepted a half-reverted transaction")
	}

	s.writeFault = nil
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
