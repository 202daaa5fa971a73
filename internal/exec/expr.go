// Package exec evaluates SQL statements against relations. It implements a
// straightforward iterator-free executor: scans produce rows, expressions
// evaluate with SQL three-valued logic, hash aggregation implements GROUP
// BY, and DML statements run cursor-style (collect matching RIDs, then
// mutate tuple by tuple) — the same cursor discipline the paper's
// maintenance-transaction rewrite assumes (§4.2).
//
// The package depends only on interfaces (Table, Catalog), so the database
// facade, the 2VNL layer, and the multi-version baselines can all execute
// queries over their own table implementations.
package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Table is the relation interface the executor reads and writes.
type Table interface {
	// Schema returns the relation's schema.
	Schema() *catalog.Schema
	// Scan calls fn for every live tuple; returning false stops early.
	Scan(fn func(storage.RID, catalog.Tuple) bool)
	// ScanFilter calls fn page by page with copies of the live tuples f
	// accepts. f.Pred sees the stored tuple under the page latch: it must
	// not retain or modify it, block, or call back into the table. The
	// slices fn receives are overwritten by the next page. An error from f
	// ends the scan and is returned. A filter that accepts nothing makes the
	// scan copy nothing: the aggregate's fold adds each tuple to its group
	// and the scan plan hands each projected row to its Sink, in place under
	// the latch, allocating only a new group. So Sink.Add runs under the
	// latch too, under the same rules.
	//
	// The page contract: f.Page, when set, replaces f.Pred on every page of
	// a table that keeps a version summary per page. It runs once per page,
	// under the page's read latch, with a read-only view of the page at
	// f.VN and an empty selection the table reuses from page to page. For a
	// versioned relation the view's Clean means every live tuple was written
	// at or before f.VN and none is a deletion, and Current(si) means the
	// same of slot si alone: a reader at f.VN sees that tuple in its current
	// values (Table 1's first row), so the hook can skip the per-tuple
	// version decision there. It decides every live slot, returns the
	// accepted ones in slot order, and, when a slot fails, the error of the
	// first failing slot in slot order; the table then copies exactly the
	// accepted slots. It should allocate only to grow the selection, to
	// admit what it consumes (a group, a sink's row) or to build an error,
	// and must not retain the view or anything read through it past its
	// return. A table may keep no summary (an unversioned one never does);
	// f.Pred must then decide everything alone.
	ScanFilter(f storage.Filter, fn func([]storage.RID, []catalog.Tuple) bool) error
	// Get returns the tuple at rid.
	Get(rid storage.RID) (catalog.Tuple, error)
	// Insert validates and stores a tuple, maintaining indexes.
	Insert(t catalog.Tuple) (storage.RID, error)
	// Update replaces the tuple at rid in place.
	Update(rid storage.RID, t catalog.Tuple) error
	// Delete removes the tuple at rid.
	Delete(rid storage.RID) error
}

// Catalog resolves table names for the executor.
type Catalog interface {
	// Table returns the named relation or an error.
	Table(name string) (Table, error)
}

// Params carries named parameter bindings (:name) for one execution.
type Params map[string]catalog.Value

// ErrUnboundParam is returned when a query references a parameter that the
// caller did not bind.
var ErrUnboundParam = errors.New("exec: unbound parameter")

// binding associates a range-variable name with a schema and the offset of
// its columns within the joined row.
type binding struct {
	name   string
	schema *catalog.Schema
	offset int
}

// env resolves column references against the current joined row. at
// reports that the reader has a version, vn, at which the tree-walker reads
// each versioned relation (Plan.ExecuteInto).
type env struct {
	bindings []binding
	params   Params
	vn       int64
	at       bool
}

// resolve finds the row index for a (possibly qualified) column reference.
func (e *env) resolve(ref *sql.ColumnRef) (int, error) {
	found := -1
	for _, b := range e.bindings {
		if ref.Table != "" && !strings.EqualFold(ref.Table, b.name) {
			continue
		}
		if idx := b.schema.ColIndex(ref.Name); idx >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("exec: ambiguous column %q", ref.Name)
			}
			found = b.offset + idx
		}
	}
	if found < 0 {
		if ref.Table != "" {
			return 0, fmt.Errorf("exec: unknown column %s.%s", ref.Table, ref.Name)
		}
		return 0, fmt.Errorf("exec: unknown column %q", ref.Name)
	}
	return found, nil
}

// compare wraps catalog.Compare with date/string coercion: comparing a date
// with a string parses the string as a date, so WHERE date = '10/14/96'
// works as the paper's examples write it.
func compare(a, b catalog.Value) (int, error) {
	if a.Kind() == catalog.TypeDate && b.Kind() == catalog.TypeString {
		if d, err := catalog.ParseDate(b.Str()); err == nil {
			b = d
		}
	} else if b.Kind() == catalog.TypeDate && a.Kind() == catalog.TypeString {
		if d, err := catalog.ParseDate(a.Str()); err == nil {
			a = d
		}
	}
	return catalog.Compare(a, b)
}

// eval evaluates an expression over the given row with SQL NULL semantics:
// comparisons and arithmetic over NULL yield NULL; AND/OR use three-valued
// logic.
func (e *env) eval(expr sql.Expr, row catalog.Tuple) (catalog.Value, error) {
	switch x := expr.(type) {
	case *sql.Literal:
		return x.Value, nil
	case *sql.Param:
		v, ok := e.params[x.Name]
		if !ok {
			return catalog.Null, fmt.Errorf("%w: :%s", ErrUnboundParam, x.Name)
		}
		return v, nil
	case *sql.ColumnRef:
		idx, err := e.resolve(x)
		if err != nil {
			return catalog.Null, err
		}
		if idx >= len(row) {
			return catalog.Null, fmt.Errorf("exec: column %q out of range", x.Name)
		}
		return row[idx], nil
	case *sql.UnaryExpr:
		v, err := e.eval(x.X, row)
		if err != nil {
			return catalog.Null, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return catalog.Null, nil
			}
			if v.Kind() != catalog.TypeBool {
				return catalog.Null, fmt.Errorf("exec: NOT applied to %v", v.Kind())
			}
			return catalog.NewBool(!v.Bool()), nil
		case "-":
			if v.IsNull() {
				return catalog.Null, nil
			}
			switch v.Kind() {
			case catalog.TypeInt:
				return catalog.NewInt(-v.Int()), nil
			case catalog.TypeFloat:
				return catalog.NewFloat(-v.Float()), nil
			default:
				return catalog.Null, fmt.Errorf("exec: unary minus on %v", v.Kind())
			}
		}
		return catalog.Null, fmt.Errorf("exec: unknown unary operator %q", x.Op)
	case *sql.BinaryExpr:
		return e.evalBinary(x, row)
	case *sql.CaseExpr:
		for _, w := range x.Whens {
			c, err := e.eval(w.Cond, row)
			if err != nil {
				return catalog.Null, err
			}
			if !c.IsNull() && c.Kind() == catalog.TypeBool && c.Bool() {
				return e.eval(w.Result, row)
			}
		}
		if x.Else != nil {
			return e.eval(x.Else, row)
		}
		return catalog.Null, nil
	case *sql.IsNullExpr:
		v, err := e.eval(x.X, row)
		if err != nil {
			return catalog.Null, err
		}
		return catalog.NewBool(v.IsNull() != x.Not), nil
	case *sql.InExpr:
		v, err := e.eval(x.X, row)
		if err != nil {
			return catalog.Null, err
		}
		if v.IsNull() {
			return catalog.Null, nil
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := e.eval(item, row)
			if err != nil {
				return catalog.Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			c, err := compare(v, iv)
			if err != nil {
				return catalog.Null, err
			}
			if c == 0 {
				return catalog.NewBool(!x.Not), nil
			}
		}
		if sawNull {
			return catalog.Null, nil
		}
		return catalog.NewBool(x.Not), nil
	case *sql.BetweenExpr:
		v, err := e.eval(x.X, row)
		if err != nil {
			return catalog.Null, err
		}
		lo, err := e.eval(x.Lo, row)
		if err != nil {
			return catalog.Null, err
		}
		hi, err := e.eval(x.Hi, row)
		if err != nil {
			return catalog.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return catalog.Null, nil
		}
		c1, err := compare(v, lo)
		if err != nil {
			return catalog.Null, err
		}
		c2, err := compare(v, hi)
		if err != nil {
			return catalog.Null, err
		}
		in := c1 >= 0 && c2 <= 0
		return catalog.NewBool(in != x.Not), nil
	case *sql.FuncCall:
		return e.evalScalarFunc(x, row)
	default:
		return catalog.Null, fmt.Errorf("exec: cannot evaluate %T", expr)
	}
}

func (e *env) evalBinary(x *sql.BinaryExpr, row catalog.Tuple) (catalog.Value, error) {
	// Three-valued AND/OR evaluate both sides (no short-circuit on errors,
	// but NULL handling follows SQL).
	if x.Op == sql.OpAnd || x.Op == sql.OpOr {
		l, err := e.eval(x.L, row)
		if err != nil {
			return catalog.Null, err
		}
		r, err := e.eval(x.R, row)
		if err != nil {
			return catalog.Null, err
		}
		lb, lnull := boolOrNull(l)
		rb, rnull := boolOrNull(r)
		if x.Op == sql.OpAnd {
			switch {
			case !lnull && !lb, !rnull && !rb:
				return catalog.NewBool(false), nil
			case lnull || rnull:
				return catalog.Null, nil
			default:
				return catalog.NewBool(true), nil
			}
		}
		switch {
		case !lnull && lb, !rnull && rb:
			return catalog.NewBool(true), nil
		case lnull || rnull:
			return catalog.Null, nil
		default:
			return catalog.NewBool(false), nil
		}
	}
	l, err := e.eval(x.L, row)
	if err != nil {
		return catalog.Null, err
	}
	r, err := e.eval(x.R, row)
	if err != nil {
		return catalog.Null, err
	}
	switch x.Op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		if l.IsNull() || r.IsNull() {
			return catalog.Null, nil
		}
		c, err := compare(l, r)
		if err != nil {
			return catalog.Null, err
		}
		var res bool
		switch x.Op {
		case sql.OpEq:
			res = c == 0
		case sql.OpNe:
			res = c != 0
		case sql.OpLt:
			res = c < 0
		case sql.OpLe:
			res = c <= 0
		case sql.OpGt:
			res = c > 0
		case sql.OpGe:
			res = c >= 0
		default:
			return catalog.Null, fmt.Errorf("exec: unexpected comparison operator %v", x.Op)
		}
		return catalog.NewBool(res), nil
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
		if l.IsNull() || r.IsNull() {
			return catalog.Null, nil
		}
		if !l.IsNumeric() || !r.IsNumeric() {
			return catalog.Null, fmt.Errorf("exec: arithmetic on %v and %v", l.Kind(), r.Kind())
		}
		if l.Kind() == catalog.TypeInt && r.Kind() == catalog.TypeInt {
			a, b := l.Int(), r.Int()
			switch x.Op {
			case sql.OpAdd:
				return catalog.NewInt(a + b), nil
			case sql.OpSub:
				return catalog.NewInt(a - b), nil
			case sql.OpMul:
				return catalog.NewInt(a * b), nil
			case sql.OpDiv:
				if b == 0 {
					return catalog.Null, errors.New("exec: division by zero")
				}
				return catalog.NewInt(a / b), nil
			default:
				return catalog.Null, fmt.Errorf("exec: unexpected arithmetic operator %v", x.Op)
			}
		}
		a, b := l.Float(), r.Float()
		switch x.Op {
		case sql.OpAdd:
			return catalog.NewFloat(a + b), nil
		case sql.OpSub:
			return catalog.NewFloat(a - b), nil
		case sql.OpMul:
			return catalog.NewFloat(a * b), nil
		case sql.OpDiv:
			if b == 0 {
				return catalog.Null, errors.New("exec: division by zero")
			}
			return catalog.NewFloat(a / b), nil
		default:
			return catalog.Null, fmt.Errorf("exec: unexpected arithmetic operator %v", x.Op)
		}
	case sql.OpAnd, sql.OpOr:
		// Unreachable: the boolean operators short-circuit above, before
		// both operands are evaluated.
	}
	return catalog.Null, fmt.Errorf("exec: unknown binary operator %v", x.Op)
}

// evalScalarFunc evaluates non-aggregate functions. Aggregates reaching this
// path are an error (they are handled by the aggregation operator).
func (e *env) evalScalarFunc(x *sql.FuncCall, row catalog.Tuple) (catalog.Value, error) {
	if IsAggregate(x.Name) {
		return catalog.Null, fmt.Errorf("exec: aggregate %s used outside of an aggregating query context", x.Name)
	}
	args := make([]catalog.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := e.eval(a, row)
		if err != nil {
			return catalog.Null, err
		}
		args[i] = v
	}
	switch x.Name {
	case "ABS":
		if len(args) != 1 {
			return catalog.Null, errors.New("exec: ABS takes one argument")
		}
		v := args[0]
		if v.IsNull() {
			return catalog.Null, nil
		}
		switch v.Kind() {
		case catalog.TypeInt:
			if v.Int() < 0 {
				return catalog.NewInt(-v.Int()), nil
			}
			return v, nil
		case catalog.TypeFloat:
			return catalog.NewFloat(math.Abs(v.Float())), nil
		default:
			return catalog.Null, fmt.Errorf("exec: ABS of %v", v.Kind())
		}
	case "COALESCE":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return catalog.Null, nil
	case "LENGTH":
		if len(args) != 1 {
			return catalog.Null, errors.New("exec: LENGTH takes one argument")
		}
		if args[0].IsNull() {
			return catalog.Null, nil
		}
		return catalog.NewInt(int64(len(args[0].Str()))), nil
	case "UPPER", "LOWER":
		if len(args) != 1 {
			return catalog.Null, fmt.Errorf("exec: %s takes one argument", x.Name)
		}
		if args[0].IsNull() {
			return catalog.Null, nil
		}
		s := args[0].Str()
		if x.Name == "UPPER" {
			return catalog.NewString(strings.ToUpper(s)), nil
		}
		return catalog.NewString(strings.ToLower(s)), nil
	default:
		return catalog.Null, fmt.Errorf("exec: unknown function %s", x.Name)
	}
}

func boolOrNull(v catalog.Value) (b, isNull bool) {
	if v.IsNull() {
		return false, true
	}
	return v.Kind() == catalog.TypeBool && v.Bool(), false
}

// truthy reports whether a WHERE/HAVING condition value passes (TRUE; NULL
// and FALSE both fail, per SQL).
func truthy(v catalog.Value) bool {
	return !v.IsNull() && v.Kind() == catalog.TypeBool && v.Bool()
}

// IsAggregate reports whether the (upper-cased) function name is one of the
// supported aggregates.
func IsAggregate(name string) bool { return slices.Contains(aggFnNames[:], name) }

// EvalConst evaluates an expression that references no columns (literals,
// parameters, arithmetic), as INSERT VALUES rows do.
func EvalConst(e sql.Expr, params Params) (catalog.Value, error) {
	ev := &env{params: params}
	return ev.eval(e, nil)
}

// RowEval evaluates expressions against single-table rows of a fixed
// schema. The 2VNL maintenance rewrite uses it to run WHERE predicates and
// SET expressions over reconstructed current-version tuples.
type RowEval struct {
	ev env
}

// NewRowEval builds an evaluator for rows of the given schema, addressable
// both unqualified and qualified by bind.
func NewRowEval(bind string, schema *catalog.Schema, params Params) *RowEval {
	return &RowEval{ev: env{
		bindings: []binding{{name: bind, schema: schema}},
		params:   params,
	}}
}

// Value evaluates e over row.
func (r *RowEval) Value(e sql.Expr, row catalog.Tuple) (catalog.Value, error) {
	return r.ev.eval(e, row)
}

// Truthy evaluates a predicate over row with SQL semantics (NULL is not
// true).
func (r *RowEval) Truthy(e sql.Expr, row catalog.Tuple) (bool, error) {
	v, err := r.ev.eval(e, row)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}
