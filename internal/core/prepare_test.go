package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
)

// prepStore builds a store on a private registry with kv preloaded: keys
// 0..9 at VN 2.
func prepStore(t *testing.T) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s := newStore(t, 2, func(o *Options) { o.Metrics = reg })
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < 10; k++ {
		if err := m.Insert("kv", kvTuple(k, 100+k)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	return s, reg
}

// A statement prepared and then issued ad hoc — by its own text, by another
// spelling, pre-parsed — compiles once: one miss, and the handle and both
// cache keys hold the same entry.
func TestPrepareThenAdHocSharesOnePlan(t *testing.T) {
	s, reg := prepStore(t)
	if _, err := s.Prepare(`SELEC nonsense`); err == nil {
		t.Fatal("Prepare accepted garbage SQL")
	}
	const q = `SELECT k, v FROM kv WHERE k < 5`
	p, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession()
	defer sess.Close()
	want, err := sess.QueryPrepared(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := planCounts(reg); h != 0 || m != 1 {
		t.Fatalf("after the prepared execution: hits=%d misses=%d, want 0/1", h, m)
	}
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range []func() (*exec.Rows, error){
		func() (*exec.Rows, error) { return sess.Query(q, nil) },
		func() (*exec.Rows, error) { return sess.Query("select k, v  from kv where k < 5", nil) },
		func() (*exec.Rows, error) { return sess.QueryStmt(sel, nil) },
		func() (*exec.Rows, error) { return sess.QueryPrepared(p, nil) },
	} {
		got, err := run()
		if err != nil || fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
			t.Fatalf("run %d: %v, %v; want %v", i, got, err, want.Tuples)
		}
	}
	if h, m := planCounts(reg); h != 4 || m != 1 {
		t.Fatalf("after four more executions: hits=%d misses=%d, want 4/1", h, m)
	}
	e := p.entry.Load()
	cur := s.tables.Load()
	if e == nil || s.plans.get(q, cur) != e || s.plans.get(p.SQL(), cur) != e {
		t.Fatal("the handle, the raw-text key and the canonical key do not share one entry")
	}
}

// A maintenance commit advances the VN and leaves every plan alone (the
// rewrite binds :sessionVN as a parameter). CreateTable and AdoptTable swap
// the copy-on-write registry: that one pointer flip kills the Prepared handle
// and the map entry alike, and the next execution through either re-derives
// once for both.
func TestRegistryFlipInvalidatesHandleAndMapEntry(t *testing.T) {
	s, reg := prepStore(t)
	const q = `SELECT k, v FROM plain`
	pt, err := s.DB().CreateTable(catalog.MustSchema("plain", kvSchema().Columns, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Insert(kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession()
	defer sess.Close()
	both := func() *planEntry {
		t.Helper()
		for _, run := range []func() (*exec.Rows, error){
			func() (*exec.Rows, error) { return sess.QueryPrepared(p, nil) },
			func() (*exec.Rows, error) { return sess.Query(q, nil) },
		} {
			if rows, err := run(); err != nil || fmt.Sprint(rows.Tuples) != "[(1, 10)]" {
				t.Fatalf("rows = %v, err = %v", rows, err)
			}
		}
		e := p.entry.Load()
		if e != s.plans.get(q, s.tables.Load()) {
			t.Fatal("handle and map entry differ after executing through both")
		}
		return e
	}
	first := both()
	if h, m := planCounts(reg); h != 1 || m != 1 {
		t.Fatalf("warmup: hits=%d misses=%d, want 1/1", h, m)
	}
	mt := mustMaint(t, s)
	if err := mt.Insert("kv", kvTuple(100, 1)); err != nil {
		t.Fatal(err)
	}
	commit(t, mt)
	if both() != first {
		t.Fatal("a maintenance commit replaced the plan")
	}

	stale := first
	for _, f := range []struct {
		name string
		flip func() error
	}{
		{"CreateTable", func() error {
			_, err := s.CreateTable(catalog.MustSchema("other", kvSchema().Columns, "k"))
			return err
		}},
		{"AdoptTable", func() error { _, err := s.AdoptTable("plain"); return err }},
	} {
		name, flip := f.name, f.flip
		before := p.entry.Load()
		h0, m0 := planCounts(reg)
		if err := flip(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cur := s.tables.Load()
		if before.reg == cur || s.plans.get(q, cur) != nil {
			t.Fatalf("%s left the handle or the map entry valid", name)
		}
		if both() == before {
			t.Fatalf("%s: the stale entry was reused", name)
		}
		if h, m := planCounts(reg); h != h0+1 || m != m0+1 {
			t.Fatalf("%s: hits %d→%d misses %d→%d, want one miss shared by both paths", name, h0, h, m0, m)
		}
	}
	// The race the registry compare cannot close: an entry validated just
	// before AdoptTable replaced its table. The plan notices (ErrPlanStale)
	// and run re-derives instead of failing the query.
	if rows, err := runRows(sess, stale); err != nil || fmt.Sprint(rows.Tuples) != "[(1, 10)]" {
		t.Fatalf("stale plan: %v, %v; want recovery to the adopted table's row", rows, err)
	}
}

// Prepared executions race registry flips: the handle's atomic pointer, the
// cache map and the stale-plan recovery hold up under -race, and every
// execution answers from a whole table — kv is never replaced, and a table
// being adopted is either readable or (between AdoptTable's drop and rename)
// absent, never half-loaded. Each reader also runs the entry resolved before
// the adoption, so the recovery is exercised on every pass, not only when a
// flip lands between validation and execution.
func TestPreparedRacesRegistryFlips(t *testing.T) {
	s, _ := prepStore(t)
	const adopted = 12
	pKV, err := s.Prepare(`SELECT k FROM kv WHERE v >= 100`)
	if err != nil {
		t.Fatal(err)
	}
	var pPlain [adopted]*Prepared
	var stale [adopted]*planEntry
	for i := range pPlain {
		name := fmt.Sprintf("plain%d", i)
		pt, err := s.DB().CreateTable(catalog.MustSchema(name, kvSchema().Columns, "k"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pt.Insert(kvTuple(1, 10)); err != nil {
			t.Fatal(err)
		}
		if pPlain[i], err = s.Prepare(`SELECT k, v FROM ` + name); err != nil {
			t.Fatal(err)
		}
		if stale[i], err = pPlain[i].plan(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < cap(errCh); r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				sess := s.BeginSession()
				rows, err := sess.QueryPrepared(pKV, nil)
				if err != nil || rows.Len() != 10 {
					errCh <- fmt.Errorf("kv: %v", err)
					return
				}
				for _, run := range []func() (*exec.Rows, error){
					func() (*exec.Rows, error) { return sess.QueryPrepared(pPlain[i%adopted], nil) },
					func() (*exec.Rows, error) { return runRows(sess, stale[i%adopted]) },
				} {
					rows, err := run()
					if err == nil && fmt.Sprint(rows.Tuples) != "[(1, 10)]" {
						errCh <- fmt.Errorf("plain%d: rows %v", i%adopted, rows.Tuples)
						return
					}
					if err != nil && !errors.Is(err, db.ErrNoSuchTable) {
						errCh <- fmt.Errorf("plain%d: %v", i%adopted, err)
						return
					}
				}
				sess.Close()
			}
		}()
	}
	for i := 0; i < adopted; i++ {
		if _, err := s.AdoptTable(fmt.Sprintf("plain%d", i)); err != nil {
			t.Error(err)
		}
		if _, err := s.CreateTable(catalog.MustSchema(fmt.Sprintf("other%d", i), kvSchema().Columns, "k")); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
