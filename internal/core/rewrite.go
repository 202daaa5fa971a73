package core

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// sessionParam is the named parameter the rewrite injects, following the
// paper's ":sessionVN" placeholder notation (Example 4.1).
const sessionParam = "sessionVN"

// RewriteSelect applies the 2VNL/nVNL reader rewrite of §4.1 to a SELECT
// over versioned relations, returning a new statement (the input is not
// mutated):
//
//   - Every reference to an updatable attribute A of a versioned relation
//     becomes a CASE expression selecting the current value or the
//     appropriate pre-update value by comparing :sessionVN with the tuple
//     version numbers. For 2VNL this is exactly the paper's
//
//     CASE WHEN :sessionVN >= tupleVN THEN A ELSE pre_A END
//
//     and for nVNL the CASE walks the version slots newest-first.
//
//   - A visibility predicate for each versioned relation, generalizing the
//     paper's
//
//     (:sessionVN >= tupleVN AND operation <> 'delete') OR
//     (:sessionVN <  tupleVN AND operation <> 'insert')
//
//     guards the WHERE: the statement's own WHERE becomes
//     CASE WHEN <visibility> THEN <where> END, which SQL evaluates only for
//     visible tuples. (Conjoined with AND, as the paper writes it, the WHERE
//     would also run on invisible tuples — a deleted tuple's values, an
//     inserted tuple's NULL pre-update values — and an error there, such as
//     a division by zero, would fail a query whose answer does not include
//     the tuple.)
//
// Tables not registered with the store pass through untouched, so queries
// may freely join versioned and ordinary relations.
//
// The rewrite is what the paper makes of 2VNL: a way to run it on a DBMS
// that knows nothing of versions. This engine resolves versions natively:
// both executors read every versioned relation through ExtTable.Slot
// (Store.selectPlan), so the rewrite serves no reader. It produces
// Session.Rewrite's text, and, run over the stored tables (Store.DB) with
// :sessionVN bound, it is the oracle the serving path is tested against.
func RewriteSelect(s *Store, sel *sql.SelectStmt) (*sql.SelectStmt, error) {
	out := sql.CloneSelect(sel)

	// Gather the versioned relations in FROM, keyed by binding name.
	type boundV struct {
		binding string
		vt      *VTable
	}
	var versioned []boundV
	// ownJudge resolves which FROM entry owns an unqualified column name;
	// rewriting applies only to unambiguous references.
	owners := func(col string) []int {
		var idxs []int
		for i, tr := range out.From {
			vt := s.lookup(tr.Table)
			if vt != nil {
				if vt.ext.Base.ColIndex(col) >= 0 || vt.ext.Ext.ColIndex(col) >= 0 {
					idxs = append(idxs, i)
				}
				continue
			}
			if tbl, err := s.d.Table(tr.Table); err == nil {
				if tbl.Schema().ColIndex(col) >= 0 {
					idxs = append(idxs, i)
				}
			}
		}
		return idxs
	}
	for _, tr := range out.From {
		if vt := s.lookup(tr.Table); vt != nil {
			versioned = append(versioned, boundV{binding: tr.Binding(), vt: vt})
		}
	}
	if len(versioned) == 0 {
		return out, nil
	}

	// rewriteRef maps a column reference to its versioned CASE form when it
	// names an updatable attribute of a versioned relation.
	rewriteRef := func(e sql.Expr) sql.Expr {
		cr, ok := e.(*sql.ColumnRef)
		if !ok {
			return e
		}
		for _, bv := range versioned {
			if cr.Table != "" {
				if !strings.EqualFold(cr.Table, bv.binding) {
					continue
				}
			} else {
				// Unqualified: rewrite only when exactly one FROM entry
				// owns the name and it is this versioned relation.
				own := owners(cr.Name)
				if len(own) != 1 || !strings.EqualFold(out.From[own[0]].Binding(), bv.binding) {
					continue
				}
			}
			bi := bv.vt.ext.Base.ColIndex(cr.Name)
			if bi < 0 {
				continue
			}
			if ord, upd := bv.vt.ext.IsUpdatable(bi); upd {
				return versionCase(bv.vt.ext, bv.binding, cr.Name, ord, cr.Table != "")
			}
			return e
		}
		return e
	}

	// Expand `*` items first — a raw star over the extended schema would
	// leak the bookkeeping columns and raw current values — so the single
	// transform pass below adds the CASE logic to the expansion too.
	var items []sql.SelectItem
	for _, it := range out.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		expanded, err := expandVersionedStar(s, out)
		if err != nil {
			return nil, err
		}
		items = append(items, expanded...)
	}
	out.Items = items

	apply := func(e sql.Expr) sql.Expr { return sql.TransformExpr(e, rewriteRef) }
	for i := range out.Items {
		if out.Items[i].Expr == nil {
			continue
		}
		// Keep the output column name when a bare column reference is
		// about to be wrapped in a CASE expression.
		if cr, ok := out.Items[i].Expr.(*sql.ColumnRef); ok && out.Items[i].Alias == "" {
			out.Items[i].Alias = cr.Name
		}
		out.Items[i].Expr = apply(out.Items[i].Expr)
	}
	out.Where = apply(out.Where)
	for i := range out.GroupBy {
		out.GroupBy[i] = apply(out.GroupBy[i])
	}
	out.Having = apply(out.Having)
	for i := range out.OrderBy {
		out.OrderBy[i].Expr = apply(out.OrderBy[i].Expr)
	}
	for i := range out.From {
		out.From[i].On = apply(out.From[i].On)
	}

	// Guard the WHERE by every versioned relation's visibility predicate.
	var visible sql.Expr
	for _, bv := range versioned {
		pred := visibilityPredicate(bv.vt.ext, bv.binding, len(out.From) > 1)
		if visible == nil {
			visible = pred
		} else {
			visible = &sql.BinaryExpr{Op: sql.OpAnd, L: visible, R: pred}
		}
	}
	if out.Where == nil {
		out.Where = visible
	} else {
		out.Where = &sql.CaseExpr{Whens: []sql.WhenClause{{Cond: visible, Result: out.Where}}}
	}
	return out, nil
}

// expandVersionedStar expands `*` into plain references to the base
// columns of every FROM relation. The caller's transform pass then wraps
// the updatable ones in version CASEs.
func expandVersionedStar(s *Store, sel *sql.SelectStmt) ([]sql.SelectItem, error) {
	qualify := len(sel.From) > 1
	var items []sql.SelectItem
	for _, tr := range sel.From {
		b := tr.Binding()
		var schema *catalog.Schema
		if vt := s.lookup(tr.Table); vt != nil {
			schema = vt.ext.Base
		} else {
			tbl, err := s.d.Table(tr.Table)
			if err != nil {
				return nil, fmt.Errorf("core: expanding *: %w", err)
			}
			schema = tbl.Schema()
		}
		for _, c := range schema.Columns {
			items = append(items, sql.SelectItem{Expr: colRef(b, c.Name, qualify), Alias: c.Name})
		}
	}
	return items, nil
}

// colRef builds a column reference, qualified when the query has several
// range variables.
func colRef(binding, name string, qualify bool) *sql.ColumnRef {
	if qualify {
		return &sql.ColumnRef{Table: binding, Name: name}
	}
	return &sql.ColumnRef{Name: name}
}

func sessionRef() sql.Expr { return &sql.Param{Name: sessionParam} }

// versionCase builds the per-attribute CASE of §4.1/§5:
//
//	CASE WHEN :sessionVN >= tupleVN1 THEN A
//	     WHEN :sessionVN >= tupleVN2 THEN pre1_A
//	     ...
//	     ELSE pre(n-1)_A END
//
// Unused slots store tupleVN 0, which every session (VN >= 1) satisfies, so
// the chain naturally stops at the oldest recorded modification.
func versionCase(e *ExtTable, binding, col string, ord int, qualify bool) sql.Expr {
	n := e.L.N
	ce := &sql.CaseExpr{}
	tvn1, _ := slotColNames(n, 1)
	ce.Whens = append(ce.Whens, sql.WhenClause{
		Cond: &sql.BinaryExpr{
			Op: sql.OpGe,
			L:  sessionRef(),
			R:  colRef(binding, tvn1, qualify),
		},
		Result: colRef(binding, col, qualify),
	})
	for j := 2; j <= n-1; j++ {
		tvnj, _ := slotColNames(n, j)
		ce.Whens = append(ce.Whens, sql.WhenClause{
			Cond: &sql.BinaryExpr{
				Op: sql.OpGe,
				L:  sessionRef(),
				R:  colRef(binding, tvnj, qualify),
			},
			Result: colRef(binding, preColName(n, j-1, col), qualify),
		})
	}
	ce.Else = colRef(binding, preColName(n, n-1, col), qualify)
	return ce
}

// visibilityPredicate builds the WHERE conjunct of §4.1, generalized to
// nVNL:
//
//	(:s >= tupleVN1 AND operation1 <> 'delete')
//	OR (:s < tupleVN1 AND :s >= tupleVN2 AND operation1 <> 'insert')
//	OR ...
//	OR (:s < tupleVN(n-1) AND operation(n-1) <> 'insert')
//
// Arm j covers sessions reading the slot-j pre-update version (visible
// unless that slot's net operation was an insert); the first arm covers
// current-version readers (visible unless deleted).
func visibilityPredicate(e *ExtTable, binding string, qualify bool) sql.Expr {
	n := e.L.N
	lit := func(s string) sql.Expr { return &sql.Literal{Value: catalog.NewString(s)} }
	tvn := func(j int) sql.Expr {
		name, _ := slotColNames(n, j)
		return colRef(binding, name, qualify)
	}
	op := func(j int) sql.Expr {
		_, name := slotColNames(n, j)
		return colRef(binding, name, qualify)
	}
	and := func(l, r sql.Expr) sql.Expr { return &sql.BinaryExpr{Op: sql.OpAnd, L: l, R: r} }
	or := func(l, r sql.Expr) sql.Expr { return &sql.BinaryExpr{Op: sql.OpOr, L: l, R: r} }

	// Arm for case 1.
	pred := and(
		&sql.BinaryExpr{Op: sql.OpGe, L: sessionRef(), R: tvn(1)},
		&sql.BinaryExpr{Op: sql.OpNe, L: op(1), R: lit(string(OpDelete))},
	)
	// Arms for slots 1..n-1 as the pre-update source.
	for j := 1; j <= n-1; j++ {
		arm := and(
			&sql.BinaryExpr{Op: sql.OpLt, L: sessionRef(), R: tvn(j)},
			&sql.BinaryExpr{Op: sql.OpNe, L: op(j), R: lit(string(OpInsert))},
		)
		if j < n-1 {
			arm = and(arm, &sql.BinaryExpr{Op: sql.OpGe, L: sessionRef(), R: tvn(j + 1)})
		}
		pred = or(pred, arm)
	}
	return pred
}
