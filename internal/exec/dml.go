package exec

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Insert executes an INSERT statement and returns the number of rows
// inserted. Expressions in VALUES may use parameters but not columns.
func Insert(cat Catalog, stmt *sql.InsertStmt, params Params) (int, error) {
	tbl, err := cat.Table(stmt.Table)
	if err != nil {
		return 0, err
	}
	sc := tbl.Schema()
	colIdx := make([]int, 0, len(stmt.Columns))
	if stmt.Columns == nil {
		for i := range sc.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range stmt.Columns {
			idx := sc.ColIndex(name)
			if idx < 0 {
				return 0, fmt.Errorf("exec: table %q has no column %q", stmt.Table, name)
			}
			colIdx = append(colIdx, idx)
		}
	}
	ev := &env{params: params}
	n := 0
	for _, row := range stmt.Rows {
		if len(row) != len(colIdx) {
			return n, fmt.Errorf("exec: INSERT row has %d values for %d columns", len(row), len(colIdx))
		}
		t := make(catalog.Tuple, len(sc.Columns))
		for i := range t {
			t[i] = catalog.Null
		}
		for i, e := range row {
			v, err := ev.eval(e, nil)
			if err != nil {
				return n, err
			}
			t[colIdx[i]] = v
		}
		if _, err := tbl.Insert(t); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Update executes an UPDATE statement cursor-style: it first collects the
// RIDs of matching tuples, then updates each in place. Returns the number of
// rows updated.
func Update(cat Catalog, stmt *sql.UpdateStmt, params Params) (int, error) {
	tbl, err := cat.Table(stmt.Table)
	if err != nil {
		return 0, err
	}
	sc := tbl.Schema()
	ev := &env{bindings: []binding{{name: stmt.Table, schema: sc}}, params: params}
	setIdx := make([]int, len(stmt.Sets))
	for i, set := range stmt.Sets {
		idx := sc.ColIndex(set.Column)
		if idx < 0 {
			return 0, fmt.Errorf("exec: table %q has no column %q", stmt.Table, set.Column)
		}
		setIdx[i] = idx
	}
	rids, err := matching(tbl, stmt.Where, ev)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rid := range rids {
		old, err := tbl.Get(rid)
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue // concurrently deleted; cursor skips it
			}
			// Anything else is an I/O fault or corruption: fail the
			// statement rather than silently updating fewer rows.
			return n, fmt.Errorf("exec: UPDATE reading %v: %w", rid, err)
		}
		// Re-check the predicate against the current tuple state.
		if stmt.Where != nil {
			v, err := ev.eval(stmt.Where, old)
			if err != nil {
				return n, err
			}
			if !truthy(v) {
				continue
			}
		}
		t := old.Clone()
		for i, set := range stmt.Sets {
			v, err := ev.eval(set.Expr, old)
			if err != nil {
				return n, err
			}
			t[setIdx[i]] = v
		}
		if err := tbl.Update(rid, t); err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue // deleted between the re-read and the write
			}
			return n, err
		}
		n++
	}
	return n, nil
}

// Delete executes a DELETE statement cursor-style and returns the number of
// rows deleted.
func Delete(cat Catalog, stmt *sql.DeleteStmt, params Params) (int, error) {
	tbl, err := cat.Table(stmt.Table)
	if err != nil {
		return 0, err
	}
	sc := tbl.Schema()
	ev := &env{bindings: []binding{{name: stmt.Table, schema: sc}}, params: params}
	rids, err := matching(tbl, stmt.Where, ev)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rid := range rids {
		if err := tbl.Delete(rid); err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue // concurrently deleted
			}
			// A faulted delete must fail the statement: reporting n with a
			// nil error here would silently under-count under I/O faults.
			return n, fmt.Errorf("exec: DELETE of %v: %w", rid, err)
		}
		n++
	}
	return n, nil
}

// matching returns the RIDs whose tuples satisfy where, via an index
// access path when one serves the predicate's equality conjuncts, else by
// scanning.
func matching(tbl Table, where sql.Expr, ev *env) ([]storage.RID, error) {
	if rids, ok := accessRIDs(tbl, ev.bindings[0], nil, where, ev.params); ok {
		var out []storage.RID
		for _, rid := range rids {
			t, err := tbl.Get(rid)
			if err != nil {
				if errors.Is(err, storage.ErrNotFound) {
					continue // slot concurrently freed; legal cursor skip
				}
				return nil, fmt.Errorf("exec: indexed read of %v: %w", rid, err)
			}
			v, err := ev.eval(where, t)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				out = append(out, rid)
			}
		}
		return out, nil
	}
	var rids []storage.RID
	var evalErr error
	tbl.Scan(func(rid storage.RID, t catalog.Tuple) bool {
		if where != nil {
			v, err := ev.eval(where, t)
			if err != nil {
				evalErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		rids = append(rids, rid)
		return true
	})
	return rids, evalErr
}
