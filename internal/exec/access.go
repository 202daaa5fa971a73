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
// version. After the 2VNL rewrite such an attribute is wrapped in a CASE
// expression, which no access path matches; a compiled plan over a
// versioned relation refuses it explicitly (Plan.compileEqConjuncts). Either
// way the query scans. Indexes on non-updatable attributes (the group-by
// attributes of summary tables) keep working.
type IndexedTable interface {
	Table
	// LookupEqual returns the RIDs whose tuples have the given values in
	// the given columns, and whether an index served the request. When ok
	// is false the caller must fall back to a scan.
	LookupEqual(cols []string, vals []catalog.Value) (rids []storage.RID, ok bool)
}

// eqConjunct is one `col = literal/param` term usable by an access path.
type eqConjunct struct {
	col string
	val catalog.Value
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

// extractEqConjuncts resolves the WHERE's equality conjuncts against params;
// a conjunct whose parameter is unbound is unusable and dropped.
func extractEqConjuncts(where sql.Expr, binding string, params Params) []eqConjunct {
	var out []eqConjunct
	eqConjuncts(where, binding, func(col *sql.ColumnRef, val sql.Expr) {
		if v, err := EvalConst(val, params); err == nil {
			out = append(out, eqConjunct{col: col.Name, val: v})
		}
	})
	return out
}

// accessRIDs attempts an index-served row source for a single-table query,
// returning candidate RIDs (still to be filtered by the full WHERE) and
// whether an index was used.
func accessRIDs(tbl Table, binding string, where sql.Expr, params Params) ([]storage.RID, bool) {
	it, ok := tbl.(IndexedTable)
	if !ok || where == nil {
		return nil, false
	}
	eqs := extractEqConjuncts(where, binding, params)
	if len(eqs) == 0 {
		return nil, false
	}
	cols := make([]string, len(eqs))
	vals := make([]catalog.Value, len(eqs))
	for i, e := range eqs {
		cols[i] = e.col
		vals[i] = e.val
	}
	return it.LookupEqual(cols, vals)
}

// accessPath is accessRIDs materialized to candidate tuples. An index entry
// whose tuple is gone (storage.ErrNotFound: the slot was concurrently freed
// between the index probe and the heap read) is legally skipped; any other
// Get failure is an I/O fault or corruption and fails the query — it must
// not silently shrink the result set.
func accessPath(tbl Table, binding string, where sql.Expr, params Params) ([]catalog.Tuple, bool, error) {
	rids, ok := accessRIDs(tbl, binding, where, params)
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
