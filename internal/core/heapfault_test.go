package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/storage"
)

// faultyKV creates the kv table as CreateTable does, except that its heap's
// summariser, which runs inside every heap write, dirties a page of a file no
// heap owns when *armed is set. The pool holds one page, so the write's own
// touch evicts that page, whose write-back fails: the write reports
// storage.ErrWriteBack after it has made its change (the seam of db's
// TestWriteBackFaultKeepsIndexesInStep).
func faultyKV(t *testing.T, s *Store, armed *bool) *VTable {
	t.Helper()
	fake := storage.PageKey{File: 1 << 30}
	pool := s.d.Pool()
	pool.RegisterWriter(fake.File, func(int) error { return errors.New("disk full") })
	ext, err := ExtendSchema(kvSchema(), s.n)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.d.CreateSummarisedTable(ext.Ext, func(tu catalog.Tuple) (int64, bool) {
		if *armed {
			*armed = false
			_ = pool.Touch(fake, true)
		}
		return ext.summary(tu)
	})
	if err != nil {
		t.Fatal(err)
	}
	vt := &VTable{store: s, ext: ext, tbl: tbl}
	s.mu.Lock()
	s.registerTableLocked("kv", vt)
	s.mu.Unlock()
	return vt
}

// sessionRows is a session scan of kv at currentVN, sorted.
func sessionRows(t *testing.T, s *Store) []string {
	t.Helper()
	sess := s.BeginSession()
	defer sess.Close()
	var rows []string
	if err := sess.Scan("kv", func(tu catalog.Tuple) bool {
		rows = append(rows, tu.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(rows)
	return rows
}

// TestHeapFaultPoisonsTransaction: a heap write that fails inside the
// applier's physical insert, update or delete has made its change (a
// write-back failure comes after it), so the transaction is poisoned on the
// sequential path as on the parallel one. Commit refuses, and Rollback
// brings the store back to the state before the transaction.
func TestHeapFaultPoisonsTransaction(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, tc := range []struct {
			name string
			// setup runs before the fault is armed; fault hits one
			// physical write.
			setup, fault func(m *Maintenance) error
		}{
			{"physInsert", nil, func(m *Maintenance) error {
				return m.Insert("kv", kvTuple(10, 100))
			}},
			{"physUpdate", nil, func(m *Maintenance) error {
				_, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)}, func(c catalog.Tuple) catalog.Tuple {
					c[1] = catalog.NewInt(77)
					return c
				})
				return err
			}},
			{"physDelete", func(m *Maintenance) error {
				// A fresh insert: deleting it is Table 4 row 2's physical
				// delete.
				return m.Insert("kv", kvTuple(10, 100))
			}, func(m *Maintenance) error {
				_, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(10)})
				return err
			}},
		} {
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				s, err := Open(db.Open(db.Options{PoolPages: 1}), Options{N: n})
				if err != nil {
					t.Fatal(err)
				}
				armed := false
				faultyKV(t, s, &armed)
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
				want := sessionRows(t, s)

				m = mustMaint(t, s)
				if tc.setup != nil {
					if err := tc.setup(m); err != nil {
						t.Fatal(err)
					}
				}
				armed = true
				if err := tc.fault(m); !errors.Is(err, storage.ErrWriteBack) {
					t.Fatalf("%s under a write-back fault = %v, want ErrWriteBack", tc.name, err)
				}
				if armed {
					t.Fatal("the fault never fired")
				}
				if err := m.Commit(); !errors.Is(err, storage.ErrWriteBack) {
					t.Fatalf("Commit after a heap fault = %v, want a refusal naming it", err)
				}
				if err := m.Rollback(); err != nil {
					t.Fatal(err)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if got := sessionRows(t, s); !slices.Equal(got, want) {
					t.Fatalf("after Rollback the store reads %v, want %v", got, want)
				}
			})
		}
	}
}

// TestInvalidOpDoesNotPoison: a refused logical operation changes no tuple,
// so the transaction stays committable.
func TestInvalidOpDoesNotPoison(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvTuple(1, 2)); !errors.Is(err, ErrInvalidMaintenanceOp) {
		t.Fatalf("insert of a live key = %v, want ErrInvalidMaintenanceOp", err)
	}
	if err := m.Insert("kv", catalog.Tuple{catalog.NewString("x"), catalog.NewInt(1)}); err == nil {
		t.Fatal("insert of a string into an INT key was accepted")
	}
	commit(t, m)
}
