package exec

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// IndexedTable is the optional interface a Table may implement to expose
// equality access paths. The executor probes it for single-table queries
// whose WHERE contains equality conjuncts on plain column references.
//
// This is where §4.3 of the paper becomes mechanical: an index holds current
// values, so it cannot serve a read of an updatable attribute at an older
// version. Both executors refuse an equality on such an attribute of a
// versioned relation (CompileOptions.indexable); after the §4.1 rewrite the
// attribute is wrapped in a CASE expression, which no access path matches.
// Either way the query scans. Indexes on non-updatable attributes (the group-by
// attributes of summary tables) keep working.
type IndexedTable interface {
	Table
	// LookupEqual returns the RIDs whose tuples have the given values in
	// the given columns, and whether an index served the request. When ok
	// is false the caller must fall back to a scan.
	LookupEqual(cols []string, vals []catalog.Value) (rids []storage.RID, ok bool)
}

// eqConjuncts calls fn for each top-level AND-ed equality between a bare
// column of the given binding and a literal or parameter, either way round.
// Any OR anywhere above a conjunct disqualifies it. A CASE with one arm and no
// ELSE — how the §4.1 rewrite guards a WHERE by tuple visibility — is true
// only where its result is, so the result's conjuncts qualify too.
func eqConjuncts(where sql.Expr, binding string, fn func(col *sql.ColumnRef, val sql.Expr)) {
	switch x := where.(type) {
	case *sql.BinaryExpr:
		if x.Op == sql.OpAnd {
			eqConjuncts(x.L, binding, fn)
			eqConjuncts(x.R, binding, fn)
			return
		}
		if x.Op != sql.OpEq {
			return
		}
		if col, ok := eqColumn(x.L, x.R, binding); ok {
			fn(col, x.R)
		} else if col, ok := eqColumn(x.R, x.L, binding); ok {
			fn(col, x.L)
		}
	case *sql.CaseExpr:
		if len(x.Whens) == 1 && x.Else == nil {
			eqConjuncts(x.Whens[0].Result, binding, fn)
		}
	}
}

// eqColumn matches `col = literal/param` with col a bare reference to the
// binding.
func eqColumn(l, r sql.Expr, binding string) (*sql.ColumnRef, bool) {
	cr, ok := l.(*sql.ColumnRef)
	if !ok || cr.Table != "" && !strings.EqualFold(cr.Table, binding) {
		return nil, false
	}
	switch r.(type) {
	case *sql.Literal, *sql.Param:
		return cr, true
	}
	return nil, false
}

// accessRIDs attempts an index-served row source for a single-table query
// over relation b, returning candidate RIDs (still to be filtered by the
// full WHERE) and whether an index was used. Its conjuncts (eqConjuncts)
// are those an index may serve (CompileOptions.indexable) whose value
// resolves against params: a conjunct whose parameter is unbound is
// unusable and dropped.
func accessRIDs(tbl Table, b binding, opts *CompileOptions, where sql.Expr, params Params) ([]storage.RID, bool) {
	it, ok := tbl.(IndexedTable)
	if !ok || where == nil {
		return nil, false
	}
	var cols []string
	var vals []catalog.Value
	eqConjuncts(where, b.name, func(col *sql.ColumnRef, val sql.Expr) {
		if v, err := EvalConst(val, params); err == nil && opts.indexable(b.schema, col.Name) {
			cols, vals = append(cols, col.Name), append(vals, v)
		}
	})
	if len(cols) == 0 {
		return nil, false
	}
	return it.LookupEqual(cols, vals)
}

// accessPath is accessRIDs materialized to candidate tuples. An index entry
// whose tuple is gone (storage.ErrNotFound: the slot was concurrently freed
// between the index probe and the heap read) is legally skipped; any other
// Get failure is an I/O fault or corruption and fails the query — it must
// not silently shrink the result set.
func accessPath(tbl Table, b binding, opts *CompileOptions, where sql.Expr, params Params) ([]catalog.Tuple, bool, error) {
	rids, ok := accessRIDs(tbl, b, opts, where, params)
	if !ok {
		return nil, false, nil
	}
	rows := make([]catalog.Tuple, 0, len(rids))
	for _, rid := range rids {
		t, err := tbl.Get(rid)
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue
			}
			return nil, true, fmt.Errorf("exec: indexed read of %v: %w", rid, err)
		}
		rows = append(rows, t)
	}
	return rows, true, nil
}
