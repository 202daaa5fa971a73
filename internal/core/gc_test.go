package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

// TestGCExcludesMaintenance races a transaction against a GC pass at the
// pass's worst moment: table b's victims are selected but not yet deleted,
// and table a's deletes are already journaled. The transaction re-inserts
// every deleted key of b, over the very tuples the pass selected (Table 2).
// It must wait for the pass, so that every committed key stays visible and
// the pass's VN-0 records do not interleave with the transaction's in the
// journal, where recovery would attribute them to the wrong transaction.
func TestGCExcludesMaintenance(t *testing.T) {
	const keys = 50
	s := newStore(t, 2)
	j := &recordingJournal{}
	s.SetJournal(j)
	for _, name := range []string{"a", "b"} {
		if _, err := s.CreateTable(catalog.MustSchema(name, kvSchema().Columns, "k")); err != nil {
			t.Fatal(err)
		}
	}
	each := func(fn func(m *Maintenance, table string, k int64) error) {
		t.Helper()
		m := mustMaint(t, s)
		for _, table := range []string{"a", "b"} {
			for k := int64(1); k <= keys; k++ {
				if err := fn(m, table, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		commit(t, m)
	}
	each(func(m *Maintenance, table string, k int64) error { return m.Insert(table, kvTuple(k, k)) })
	each(func(m *Maintenance, table string, k int64) error {
		_, err := m.DeleteKey(table, catalog.Tuple{catalog.NewInt(k)})
		return err
	})
	setup := len(j.calls)

	done := make(chan error, 1)
	s.gcSelected = func(table string) {
		if table != "b" {
			return
		}
		go func() {
			m, err := s.BeginMaintenance()
			if err != nil {
				done <- err
				return
			}
			for k := int64(1); k <= keys; k++ {
				if err := m.Insert("b", kvTuple(k, 100+k)); err != nil {
					_ = m.Rollback()
					done <- err
					return
				}
			}
			done <- m.Commit()
		}()
		// Unfixed, the transaction commits inside the pass. Fixed, it waits
		// in BeginMaintenance and the pass goes on after the timeout.
		select {
		case err := <-done:
			done <- err
		case <-time.After(200 * time.Millisecond):
		}
	}
	stats := s.GC()
	if err := <-done; err != nil {
		t.Fatalf("transaction racing the GC pass: %v", err)
	}
	s.gcSelected = nil
	if stats.Removed != 2*keys {
		t.Fatalf("GC removed %d tuples, want %d", stats.Removed, 2*keys)
	}

	visible := 0
	sess := s.BeginSession()
	defer sess.Close()
	if err := sess.Scan("b", func(tu catalog.Tuple) bool {
		if tu[1].Int() == 100+tu[0].Int() {
			visible++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if visible != keys {
		t.Fatalf("%d of %d committed keys of b are visible after the GC pass", visible, keys)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	want := []string{"begin"}
	for _, table := range []string{"a", "b"} {
		for k := 0; k < keys; k++ {
			want = append(want, "delete:"+table)
		}
	}
	want = append(want, "commit", "begin")
	for k := 0; k < keys; k++ {
		want = append(want, "insert:b")
	}
	want = append(want, "commit")
	if got := j.calls[setup:]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("journal after the setup:\n%s\nwant the GC pass, then the transaction:\n%s",
			strings.Join(got, " "), strings.Join(want, " "))
	}
}
