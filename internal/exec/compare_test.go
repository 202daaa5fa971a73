package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// cmpLayout is the versioned relation the comparison differential runs on.
// Statements name the base columns (a, b, va, vb, z); a stored tuple is
// (tvn, a, b, va, vb, pre_va, pre_vb, z). a, b and z sit at one offset in
// both version slots; va and vb are read from the current or the pre-update
// copy, whichever the reader's version selects. z is the last stored column,
// so a stored tuple cut one short reads it out of range.
func cmpLayout() ([]binding, *CompileOptions) {
	cols := make([]catalog.Column, 0, 5)
	for _, name := range []string{"a", "b", "va", "vb", "z"} {
		cols = append(cols, catalog.Column{Name: name, Type: catalog.TypeInt, Length: 8})
	}
	base := catalog.MustSchema("t", cols)
	opts := &CompileOptions{
		Slots: [][]int{{1, 2, 3, 4, 7}, {1, 2, 5, 6, 7}},
		Select: func(row catalog.Tuple, vn int64) (int, bool) {
			if vn >= row[0].Int() {
				return 0, true
			}
			return 1, true
		},
	}
	return []binding{{name: "t", schema: base}}, opts
}

// cmpStored stores x and y at version 2: in a and b, and in the va/vb copy
// a reader at vn reads. The copy it does not read holds a string, so reading
// the wrong slot changes the answer.
func cmpStored(x, y catalog.Value, vn int64) catalog.Tuple {
	junk := catalog.NewString("wrong slot")
	row := catalog.Tuple{catalog.NewInt(2), x, y, x, y, junk, junk, catalog.NewInt(7)}
	if vn < 2 {
		row[3], row[4], row[5], row[6] = junk, junk, x, y
	}
	return row
}

// cmpBase is the tree-walker's row: the base tuple the reader at vn sees.
func cmpBase(opts *CompileOptions, stored catalog.Tuple, vn int64) catalog.Tuple {
	k, _ := opts.Select(stored, vn)
	var base catalog.Tuple
	for _, off := range opts.Slots[k] {
		if off >= len(stored) {
			break
		}
		base = append(base, stored[off])
	}
	return base
}

// sameOutcome evaluates e compiled against the stored tuple and walked
// against its base tuple, and reports any difference in value or error. It
// also runs e in WHERE position, as the bool predicate compilePred builds,
// which must pass exactly when the walked value is TRUE and fail with the
// same error.
func sameOutcome(e sql.Expr, stored catalog.Tuple, vn int64, params Params) error {
	bindings, opts := cmpLayout()
	want, werr := (&env{bindings: bindings, params: params}).eval(e, cmpBase(opts, stored, vn))
	comp := newCompiler(bindings, opts)
	fn, err := comp.compile(e)
	if err != nil {
		return fmt.Errorf("compile: %v", err)
	}
	pred, err := comp.compilePred(e)
	if err != nil {
		return fmt.Errorf("compile predicate: %v", err)
	}
	ctx := comp.newCtx(params, vn)
	ctx.at(stored)
	got, gerr := fn(ctx, stored)
	if err := sameError(werr, gerr); err != nil {
		return err
	}
	if werr == nil && (want.Kind() != got.Kind() || want.String() != got.String()) {
		return fmt.Errorf("tree-walker %v (%v), compiled %v (%v)", want, want.Kind(), got, got.Kind())
	}
	ok, perr := pred(ctx, stored)
	if err := sameError(werr, perr); err != nil {
		return fmt.Errorf("as a WHERE: %w", err)
	}
	if werr == nil && ok != truthy(want) {
		return fmt.Errorf("as a WHERE: tree-walker %v, predicate %v", want, ok)
	}
	return nil
}

func sameError(want, got error) error {
	switch {
	case (want == nil) != (got == nil):
		return fmt.Errorf("tree-walker err %v, compiled err %v", want, got)
	case want != nil && want.Error() != got.Error():
		return fmt.Errorf("tree-walker err %q, compiled err %q", want, got)
	}
	return nil
}

// Every comparison compiles to one closure that loads its operands in place.
// It is pinned to the tree-walker, value and error, for every operand kind —
// column, versioned column at either version slot, parameter, literal,
// expression — on both sides, under all six operators, over NULL, INT,
// FLOAT, mixed INT/FLOAT, STRING, DATE against a date string, and INTs
// beyond 2^53; and for an unbound parameter, taken or in a CASE arm that is
// not, and a column past the end of the stored tuple.
func TestCompiledComparisonMatchesTreeWalker(t *testing.T) {
	const big = int64(1) << 53
	date, err := catalog.ParseDate("10/14/96")
	if err != nil {
		t.Fatal(err)
	}
	values := []catalog.Value{
		catalog.Null,
		catalog.NewInt(3),
		catalog.NewInt(big),
		catalog.NewInt(big + 1),
		catalog.NewFloat(3),
		catalog.NewFloat(2.5),
		catalog.NewString("abc"),
		catalog.NewString("10/14/96"),
		date,
		catalog.NewBool(true),
	}
	ops := []sql.BinaryOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}
	// Each operand kind as it reads x (left side) or y (right side).
	kinds := []struct {
		name    string
		operand func(left bool, v catalog.Value) sql.Expr
	}{
		{"column", func(left bool, _ catalog.Value) sql.Expr { return &sql.ColumnRef{Name: pick(left, "a", "b")} }},
		{"versioned", func(left bool, _ catalog.Value) sql.Expr { return &sql.ColumnRef{Name: pick(left, "va", "vb")} }},
		{"param", func(left bool, _ catalog.Value) sql.Expr { return &sql.Param{Name: pick(left, "x", "y")} }},
		{"literal", func(_ bool, v catalog.Value) sql.Expr { return &sql.Literal{Value: v} }},
		{"expression", func(left bool, _ catalog.Value) sql.Expr {
			return &sql.FuncCall{Name: "COALESCE", Args: []sql.Expr{&sql.ColumnRef{Name: pick(left, "va", "vb")}}}
		}},
	}
	cases := 0
	for _, vn := range []int64{1, 2} {
		for _, x := range values {
			for _, y := range values {
				stored := cmpStored(x, y, vn)
				params := Params{"x": x, "y": y}
				for _, lk := range kinds {
					for _, rk := range kinds {
						for _, op := range ops {
							e := &sql.BinaryExpr{Op: op, L: lk.operand(true, x), R: rk.operand(false, y)}
							if err := sameOutcome(e, stored, vn, params); err != nil {
								t.Fatalf("vn %d: %s %v %s %s over x=%v y=%v: %v", vn, lk.name, x, op, rk.name, x, y, err)
							}
							cases++
						}
					}
				}
			}
		}
	}

	// An unbound parameter fails the comparison that reads it, on either
	// side, and nothing when it sits in an arm that is not taken.
	unbound := &sql.Param{Name: "u"}
	a := &sql.ColumnRef{Name: "a"}
	untaken := func(cmp sql.Expr) sql.Expr {
		return &sql.CaseExpr{
			Whens: []sql.WhenClause{{Cond: &sql.Literal{Value: catalog.NewBool(false)}, Result: cmp}},
			Else:  &sql.BinaryExpr{Op: sql.OpEq, L: a, R: a},
		}
	}
	// A stored tuple one column short reads z out of range.
	short := cmpStored(catalog.NewInt(1), catalog.NewInt(2), 2)
	short = short[:len(short)-1]
	z := &sql.ColumnRef{Name: "z"}
	for _, op := range ops {
		for _, e := range []sql.Expr{
			&sql.BinaryExpr{Op: op, L: unbound, R: a},
			&sql.BinaryExpr{Op: op, L: a, R: unbound},
			&sql.BinaryExpr{Op: op, L: &sql.Literal{Value: catalog.Null}, R: unbound},
			untaken(&sql.BinaryExpr{Op: op, L: unbound, R: a}),
			untaken(&sql.BinaryExpr{Op: op, L: a, R: unbound}),
		} {
			for _, stored := range []catalog.Tuple{cmpStored(catalog.NewInt(1), catalog.Null, 2), short} {
				if err := sameOutcome(e, stored, 2, Params{}); err != nil {
					t.Fatalf("%s: %v", sql.PrintExpr(e), err)
				}
				cases++
			}
		}
		for _, e := range []sql.Expr{
			&sql.BinaryExpr{Op: op, L: z, R: a},
			&sql.BinaryExpr{Op: op, L: a, R: z},
			&sql.BinaryExpr{Op: op, L: unbound, R: z},
			&sql.BinaryExpr{Op: op, L: z, R: unbound},
		} {
			if err := sameOutcome(e, short, 2, Params{}); err != nil {
				t.Fatalf("%s over a short tuple: %v", sql.PrintExpr(e), err)
			}
			cases++
		}
	}
	t.Logf("%d comparisons agree", cases)
}

// Every condition compilePred tests directly — comparison, AND, OR, IS
// [NOT] NULL, BETWEEN, IN — and NOT and CASE, which it wraps, answer in
// WHERE position exactly when the tree-walker's value is TRUE, and fail with
// its error (sameOutcome). The operands cover NULL, TRUE, FALSE, values that
// are not bools, bound and unbound parameters, comparisons over columns and
// over the versioned copy at either slot, and an error on either side of an
// AND or OR: AND and OR must still evaluate their right side when the left
// already decides the row.
func TestCompiledPredicateMatchesTreeWalker(t *testing.T) {
	lit := func(v catalog.Value) sql.Expr { return &sql.Literal{Value: v} }
	col := func(name string) sql.Expr { return &sql.ColumnRef{Name: name} }
	leaves := []sql.Expr{
		lit(catalog.Null),
		lit(catalog.NewBool(true)),
		lit(catalog.NewBool(false)),
		lit(catalog.NewInt(3)),
		lit(catalog.NewString("abc")),
		col("a"),
		&sql.Param{Name: "x"},
		&sql.Param{Name: "u"}, // never bound
		&sql.BinaryExpr{Op: sql.OpLt, L: col("va"), R: col("vb")},
		&sql.BinaryExpr{Op: sql.OpEq, L: col("a"), R: &sql.Param{Name: "u"}},
		&sql.BinaryExpr{Op: sql.OpAdd, L: col("a"), R: col("b")},
	}
	var conds []sql.Expr
	for _, l := range leaves {
		conds = append(conds,
			l,
			&sql.UnaryExpr{Op: "NOT", X: l},
			&sql.IsNullExpr{X: l},
			&sql.IsNullExpr{X: l, Not: true},
			&sql.BetweenExpr{X: col("a"), Lo: l, Hi: col("b")},
			&sql.BetweenExpr{X: l, Lo: col("a"), Hi: col("b"), Not: true},
			&sql.InExpr{X: col("va"), List: []sql.Expr{l, col("b")}},
			&sql.InExpr{X: l, List: []sql.Expr{col("a"), lit(catalog.Null)}, Not: true},
			&sql.CaseExpr{Whens: []sql.WhenClause{{Cond: l, Result: lit(catalog.NewBool(true))}}, Else: l},
		)
		for _, r := range leaves {
			for _, op := range []sql.BinaryOp{sql.OpAnd, sql.OpOr} {
				c := &sql.BinaryExpr{Op: op, L: l, R: r}
				conds = append(conds, c, &sql.UnaryExpr{Op: "NOT", X: c})
			}
		}
	}
	// Conditions over conditions: each AND/OR above with another on its
	// right.
	n := len(conds)
	for i := 0; i < n; i += 7 {
		for _, op := range []sql.BinaryOp{sql.OpAnd, sql.OpOr} {
			conds = append(conds, &sql.BinaryExpr{Op: op, L: conds[i], R: conds[(i*13+5)%n]})
		}
	}
	values := []catalog.Value{catalog.Null, catalog.NewInt(3), catalog.NewInt(5), catalog.NewBool(true), catalog.NewBool(false)}
	cases := 0
	for _, vn := range []int64{1, 2} {
		for _, x := range values {
			for _, y := range values {
				stored := cmpStored(x, y, vn)
				params := Params{"x": x}
				for _, e := range conds {
					if err := sameOutcome(e, stored, vn, params); err != nil {
						t.Fatalf("vn %d, x=%v y=%v: %s: %v", vn, x, y, sql.PrintExpr(e), err)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d conditions agree", cases)
}

func pick(left bool, l, r string) string {
	if left {
		return l
	}
	return r
}
