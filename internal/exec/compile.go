package exec

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// This file implements the compiled-closure expression evaluator: an
// sql.Expr is compiled once — column references resolved to row offsets,
// parameter references resolved to slots in a per-execution binding array,
// operators specialized — into a closure evaluated per row with no tree
// walking and no string comparisons. Cached plans (see plan.go and
// core's plan cache) compile their filter and projection expressions once
// and amortize the compilation over every execution.
//
// Semantics are pinned to the tree-walking env.eval by the differential
// suite: SQL three-valued logic, NULL propagation, lazy unbound-parameter
// errors (a parameter in a CASE arm that is never taken must not fail the
// query), and the date/string comparison coercion.

// compiledExpr evaluates one expression over a row within an execution
// context (parameter bindings).
type compiledExpr func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error)

// compiledPred evaluates a condition over a row to whether it is TRUE — all
// a WHERE or a CASE arm asks of it. NULL, FALSE and a value that is
// not a bool are all not TRUE, so a predicate never builds a Value.
type compiledPred func(ctx *evalCtx, row catalog.Tuple) (bool, error)

// compiledTest evaluates a comparison, BETWEEN or IN in SQL's three values:
// ok is TRUE; null is NULL, with ok false. Its value closure (valueOf) and
// its predicate (predOf) share it.
type compiledTest func(ctx *evalCtx, row catalog.Tuple) (ok, null bool, err error)

func valueOf(test compiledTest) compiledExpr {
	return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
		ok, null, err := test(ctx, row)
		if err != nil || null {
			return catalog.Null, err
		}
		return catalog.NewBool(ok), nil
	}
}

func predOf(test compiledTest) compiledPred {
	return func(ctx *evalCtx, row catalog.Tuple) (bool, error) {
		ok, _, err := test(ctx, row)
		return ok, err
	}
}

// evalCtx is the per-execution state shared by every compiled closure of
// one plan: the parameter values, bound into slots assigned at compile
// time; for a versioned relation the reader's version and where the current
// tuple keeps its columns at that version; and scratch for the index lookup
// (Plan.lookupRIDs) and the result row. It never escapes an execution, so
// concurrent executions of one shared plan each get their own. A plan within
// the inline sizes keeps it all inside, so building one is one allocation.
type evalCtx struct {
	params []catalog.Value
	bound  []bool
	ver    *CompileOptions
	vn     int64
	off    []int // ver.Slots[k] for the slot k the current tuple is read in

	paramArr [ctxInline]catalog.Value
	boundArr [ctxInline]bool
	lookCols [ctxInline]string
	lookVals [ctxInline]catalog.Value
	rowArr   [rowInline]catalog.Value
}

// ctxInline is how many parameters, and how many index-lookup conjuncts, an
// evalCtx holds without a further allocation, and rowInline how wide a row.
const (
	ctxInline = 2
	rowInline = 4
)

// scratch returns the row an execution projects its result rows into.
func (ctx *evalCtx) scratch(w int) catalog.Tuple {
	if w <= rowInline {
		return ctx.rowArr[:w:w]
	}
	return make(catalog.Tuple, w)
}

// at points the context's column reads at the version slot the reader sees
// stored tuple t in, and reports whether t exists in that version. Without a
// versioned relation every tuple exists as stored.
func (ctx *evalCtx) at(t catalog.Tuple) bool {
	if ctx.ver == nil {
		return true
	}
	k, visible := ctx.ver.Select(t, ctx.vn)
	ctx.read(k)
	return visible
}

// current points the context's column reads at the current values: the
// version slot every tuple of a page clean at the reader's version is read
// in (Table.ScanFilter). Without a versioned relation every tuple is read as
// stored.
func (ctx *evalCtx) current() {
	if ctx.ver != nil {
		ctx.read(0)
	}
}

// read points the context's column reads at version slot k. Most tuples are
// read in the slot the previous one was, so the offsets are stored only on a
// change (every slot's offsets are a distinct, non-empty slice).
func (ctx *evalCtx) read(k int) {
	if off := ctx.ver.Slots[k]; &off[0] != &ctx.off[0] {
		ctx.off = off
	}
}

// compiler compiles expressions against a fixed set of range-variable
// bindings, interning parameter names into slots as it encounters them.
type compiler struct {
	bindings []binding
	// ver describes the versioned relation the bindings name, or is nil.
	ver       *CompileOptions
	paramSlot map[string]int
	// paramNames, parallel to the slots, names each slot for binding and
	// error messages.
	paramNames []string
}

func newCompiler(bindings []binding, ver *CompileOptions) *compiler {
	return &compiler{bindings: bindings, ver: ver, paramSlot: make(map[string]int)}
}

// slot returns the parameter slot for name, creating one on first use.
func (c *compiler) slot(name string) int {
	if s, ok := c.paramSlot[name]; ok {
		return s
	}
	s := len(c.paramNames)
	c.paramSlot[name] = s
	c.paramNames = append(c.paramNames, name)
	return s
}

// newCtx binds one execution's parameters, and the reader's version vn, into
// a fresh context. Unbound parameters are detected lazily, when (and only
// when) their slot is read, mirroring the tree-walking evaluator.
func (c *compiler) newCtx(params Params, vn int64) *evalCtx {
	ctx := &evalCtx{ver: c.ver, vn: vn}
	if c.ver != nil {
		ctx.off = c.ver.Slots[0]
	}
	if n := len(c.paramNames); n <= ctxInline {
		ctx.params, ctx.bound = ctx.paramArr[:n], ctx.boundArr[:n]
	} else {
		ctx.params, ctx.bound = make([]catalog.Value, n), make([]bool, n)
	}
	for i, name := range c.paramNames {
		ctx.params[i], ctx.bound[i] = params[name]
	}
	return ctx
}

// resolve finds the row offset for a (possibly qualified) column reference,
// with the same ambiguity and unknown-column rules as env.resolve.
func (c *compiler) resolve(ref *sql.ColumnRef) (int, error) {
	found := -1
	for _, b := range c.bindings {
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

// column0 returns, when e is a column reference, its offset in a stored
// tuple at version slot 0 and its declared type; otherwise ok is false and
// typ is TypeNull.
func (c *compiler) column0(e sql.Expr) (off int, typ catalog.Type, ok bool) {
	ref, ok := e.(*sql.ColumnRef)
	if !ok {
		return 0, catalog.TypeNull, false
	}
	i, err := c.resolve(ref)
	if err != nil {
		return 0, catalog.TypeNull, false
	}
	off = i
	if c.ver != nil {
		off = c.ver.Slots[0][i]
	}
	return off, c.bindings[0].schema.Columns[i].Type, true
}

// operand is a leaf of an expression — a column, a parameter or a literal —
// or, for anything else, the expression's closure. A comparison loads its
// operands in place (load): a stored column by its address in the row, a
// parameter by its slot in the context, with no closure call and no copy.
type operand struct {
	kind operandKind
	idx  int           // row offset, versioned base column or parameter slot
	name string        // column or parameter name, for errors
	lit  catalog.Value // opLiteral
	fn   compiledExpr  // opExpr
}

type operandKind uint8

const (
	opExpr      operandKind = iota
	opColumn                // row[idx]
	opVersioned             // row[ctx.off[idx]]: a column whose offset depends on the version slot
	opParam                 // ctx.params[idx]
	opLiteral               // lit
)

// operand compiles e as a comparison operand.
func (c *compiler) operand(e sql.Expr) (operand, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return operand{kind: opLiteral, lit: x.Value}, nil
	case *sql.Param:
		return operand{kind: opParam, idx: c.slot(x.Name), name: x.Name}, nil
	case *sql.ColumnRef:
		idx, err := c.resolve(x)
		if err != nil {
			return operand{}, err
		}
		if c.ver != nil && c.ver.versioned(idx) {
			return operand{kind: opVersioned, idx: idx, name: x.Name}, nil
		}
		if c.ver != nil {
			idx = c.ver.Slots[0][idx]
		}
		return operand{kind: opColumn, idx: idx, name: x.Name}, nil
	}
	fn, err := c.compile(e)
	return operand{kind: opExpr, fn: fn}, err
}

// load returns the operand's value: in place for a column, a parameter or a
// literal, and evaluated into tmp for an expression. The pointer is valid
// while row and ctx are.
func (o *operand) load(ctx *evalCtx, row catalog.Tuple, tmp *catalog.Value) (*catalog.Value, error) {
	switch o.kind {
	case opColumn:
		if o.idx < len(row) {
			return &row[o.idx], nil
		}
	case opVersioned:
		if off := ctx.off[o.idx]; off < len(row) {
			return &row[off], nil
		}
	case opParam:
		if ctx.bound[o.idx] {
			return &ctx.params[o.idx], nil
		}
	case opLiteral:
		return &o.lit, nil
	default:
		v, err := o.fn(ctx, row)
		*tmp = v
		return tmp, err
	}
	return nil, o.fail()
}

// fail is the error of a column operand past the end of the row or of an
// unbound parameter — raised when read, so a parameter in a CASE arm that is
// never taken does not fail the query.
func (o *operand) fail() error {
	if o.kind == opParam {
		return fmt.Errorf("%w: :%s", ErrUnboundParam, o.name)
	}
	return fmt.Errorf("exec: column %q out of range", o.name)
}

// closure returns the operand as an expression of its own.
func (o operand) closure() compiledExpr {
	idx := o.idx
	switch o.kind {
	case opColumn:
		return func(_ *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			if idx < len(row) {
				return row[idx], nil
			}
			return catalog.Null, o.fail()
		}
	case opVersioned:
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			if off := ctx.off[idx]; off < len(row) {
				return row[off], nil
			}
			return catalog.Null, o.fail()
		}
	case opParam:
		return func(ctx *evalCtx, _ catalog.Tuple) (catalog.Value, error) {
			if ctx.bound[idx] {
				return ctx.params[idx], nil
			}
			return catalog.Null, o.fail()
		}
	case opLiteral:
		v := o.lit
		return func(*evalCtx, catalog.Tuple) (catalog.Value, error) { return v, nil }
	default: // opExpr
		return o.fn
	}
}

// compile builds the closure for e. A compile error means the expression
// cannot be resolved against the bindings (or uses an unsupported form);
// callers fall back to the tree-walking path, which reports the same error
// at evaluation time.
func (c *compiler) compile(e sql.Expr) (compiledExpr, error) {
	switch x := e.(type) {
	case *sql.Literal, *sql.Param, *sql.ColumnRef:
		o, err := c.operand(e)
		if err != nil {
			return nil, err
		}
		return o.closure(), nil

	case *sql.UnaryExpr:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
				v, err := inner(ctx, row)
				if err != nil {
					return catalog.Null, err
				}
				if v.IsNull() {
					return catalog.Null, nil
				}
				if v.Kind() != catalog.TypeBool {
					return catalog.Null, fmt.Errorf("exec: NOT applied to %v", v.Kind())
				}
				return catalog.NewBool(!v.Bool()), nil
			}, nil
		case "-":
			return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
				v, err := inner(ctx, row)
				if err != nil {
					return catalog.Null, err
				}
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
			}, nil
		}
		return nil, fmt.Errorf("exec: unknown unary operator %q", x.Op)

	case *sql.BinaryExpr:
		return c.compileBinary(x)

	case *sql.CaseExpr:
		type arm struct {
			cond   compiledPred
			result compiledExpr
		}
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			cond, err := c.compilePred(w.Cond)
			if err != nil {
				return nil, err
			}
			result, err := c.compile(w.Result)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{cond, result}
		}
		var elseFn compiledExpr
		if x.Else != nil {
			var err error
			elseFn, err = c.compile(x.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			for _, a := range arms {
				ok, err := a.cond(ctx, row)
				if err != nil {
					return catalog.Null, err
				}
				if ok {
					return a.result(ctx, row)
				}
			}
			if elseFn != nil {
				return elseFn(ctx, row)
			}
			return catalog.Null, nil
		}, nil

	case *sql.IsNullExpr:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			v, err := inner(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			return catalog.NewBool(v.IsNull() != not), nil
		}, nil

	case *sql.InExpr, *sql.BetweenExpr:
		test, err := c.compileTest(e)
		if err != nil {
			return nil, err
		}
		return valueOf(test), nil

	case *sql.FuncCall:
		return c.compileFunc(x)

	default:
		return nil, fmt.Errorf("exec: cannot compile %T", e)
	}
}

// compileTest compiles a comparison, IN or BETWEEN into its three-valued
// test. Operands are evaluated in the tree-walker's order, and it stops
// where the tree-walker stops, so both fail with the same error.
func (c *compiler) compileTest(e sql.Expr) (compiledTest, error) {
	switch x := e.(type) {
	case *sql.BinaryExpr:
		return c.compileCompare(x)

	case *sql.InExpr:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		items := make([]compiledExpr, len(x.List))
		for i, item := range x.List {
			ci, err := c.compile(item)
			if err != nil {
				return nil, err
			}
			items[i] = ci
		}
		not := x.Not
		return func(ctx *evalCtx, row catalog.Tuple) (ok, null bool, err error) {
			v, err := inner(ctx, row)
			if err != nil {
				return false, false, err
			}
			if v.IsNull() {
				return false, true, nil
			}
			sawNull := false
			for _, item := range items {
				iv, err := item(ctx, row)
				if err != nil {
					return false, false, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				cmp, err := compare(v, iv)
				if err != nil {
					return false, false, err
				}
				if cmp == 0 {
					return !not, false, nil
				}
			}
			if sawNull {
				return false, true, nil
			}
			return not, false, nil
		}, nil

	case *sql.BetweenExpr:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *evalCtx, row catalog.Tuple) (ok, null bool, err error) {
			v, err := inner(ctx, row)
			if err != nil {
				return false, false, err
			}
			lv, err := lo(ctx, row)
			if err != nil {
				return false, false, err
			}
			hv, err := hi(ctx, row)
			if err != nil {
				return false, false, err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return false, true, nil
			}
			c1, err := compare(v, lv)
			if err != nil {
				return false, false, err
			}
			c2, err := compare(v, hv)
			if err != nil {
				return false, false, err
			}
			return (c1 >= 0 && c2 <= 0) != not, false, nil
		}, nil
	}
	return nil, fmt.Errorf("exec: %T is not a comparison", e)
}

// compilePred compiles e as a condition. Comparisons, IN, BETWEEN, IS [NOT]
// NULL, AND and OR answer TRUE or not directly. AND and OR still evaluate
// both sides, left first, so an error on either side fails the row as it
// does in the tree-walker; and since AND is TRUE only when both sides are,
// and OR when either is, they combine their sides' predicates. NOT is TRUE
// only when its operand is FALSE, which a predicate cannot tell from NULL,
// so NOT — like every other form — is its value closure tested with truthy.
func (c *compiler) compilePred(e sql.Expr) (compiledPred, error) {
	switch x := e.(type) {
	case *sql.BinaryExpr:
		switch x.Op {
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			test, err := c.compileTest(x)
			if err != nil {
				return nil, err
			}
			return predOf(test), nil
		case sql.OpAnd, sql.OpOr:
			l, err := c.compilePred(x.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compilePred(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == sql.OpAnd {
				return func(ctx *evalCtx, row catalog.Tuple) (bool, error) {
					lok, err := l(ctx, row)
					if err != nil {
						return false, err
					}
					rok, err := r(ctx, row)
					return lok && rok, err
				}, nil
			}
			return func(ctx *evalCtx, row catalog.Tuple) (bool, error) {
				lok, err := l(ctx, row)
				if err != nil {
					return false, err
				}
				rok, err := r(ctx, row)
				return (lok || rok) && err == nil, err
			}, nil
		case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
			// Not a condition: its value is tested below.
		}
	case *sql.InExpr, *sql.BetweenExpr:
		test, err := c.compileTest(e)
		if err != nil {
			return nil, err
		}
		return predOf(test), nil
	case *sql.IsNullExpr:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *evalCtx, row catalog.Tuple) (bool, error) {
			v, err := inner(ctx, row)
			return err == nil && v.IsNull() != not, err
		}, nil
	}
	fn, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return func(ctx *evalCtx, row catalog.Tuple) (bool, error) {
		v, err := fn(ctx, row)
		return err == nil && truthy(v), err
	}, nil
}

// compileAt compiles e against other, unversioned bindings — the
// aggregate's group row — sharing c's parameter slots, so closures compiled
// either way evaluate in one execution context.
func (c *compiler) compileAt(bindings []binding, e sql.Expr) (compiledExpr, error) {
	saved, ver := c.bindings, c.ver
	c.bindings, c.ver = bindings, nil
	defer func() { c.bindings, c.ver = saved, ver }()
	return c.compile(e)
}

// compileBinary specializes the operator at compile time. AND/OR evaluate
// both sides (no short-circuit on errors) with three-valued logic, exactly
// as evalBinary does.
func (c *compiler) compileBinary(x *sql.BinaryExpr) (compiledExpr, error) {
	switch x.Op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		test, err := c.compileCompare(x)
		if err != nil {
			return nil, err
		}
		return valueOf(test), nil
	case sql.OpAnd, sql.OpOr, sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
		// Below, over a closure for each side.
	}
	l, err := c.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case sql.OpAnd:
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			rv, err := r(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			lb, lnull := boolOrNull(lv)
			rb, rnull := boolOrNull(rv)
			switch {
			case !lnull && !lb, !rnull && !rb:
				return catalog.NewBool(false), nil
			case lnull || rnull:
				return catalog.Null, nil
			default:
				return catalog.NewBool(true), nil
			}
		}, nil
	case sql.OpOr:
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			rv, err := r(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			lb, lnull := boolOrNull(lv)
			rb, rnull := boolOrNull(rv)
			switch {
			case !lnull && lb, !rnull && rb:
				return catalog.NewBool(true), nil
			case lnull || rnull:
				return catalog.Null, nil
			default:
				return catalog.NewBool(false), nil
			}
		}, nil

	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
		op := x.Op
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			rv, err := r(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return catalog.Null, nil
			}
			if !lv.IsNumeric() || !rv.IsNumeric() {
				return catalog.Null, fmt.Errorf("exec: arithmetic on %v and %v", lv.Kind(), rv.Kind())
			}
			if lv.Kind() == catalog.TypeInt && rv.Kind() == catalog.TypeInt {
				a, b := lv.Int(), rv.Int()
				switch op {
				case sql.OpAdd:
					return catalog.NewInt(a + b), nil
				case sql.OpSub:
					return catalog.NewInt(a - b), nil
				case sql.OpMul:
					return catalog.NewInt(a * b), nil
				default:
					if b == 0 {
						return catalog.Null, errors.New("exec: division by zero")
					}
					return catalog.NewInt(a / b), nil
				}
			}
			a, b := lv.Float(), rv.Float()
			switch op {
			case sql.OpAdd:
				return catalog.NewFloat(a + b), nil
			case sql.OpSub:
				return catalog.NewFloat(a - b), nil
			case sql.OpMul:
				return catalog.NewFloat(a * b), nil
			default:
				if b == 0 {
					return catalog.Null, errors.New("exec: division by zero")
				}
				return catalog.NewFloat(a / b), nil
			}
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown binary operator %v", x.Op)
	}
}

// compileCompare compiles = <> < <= > >= into a test. Both operands are
// loaded in place (operand.load), left before right, so errors, NULL handling
// and the date/string coercion are evalBinary's; two INTs compare as int64
// inline.
func (c *compiler) compileCompare(x *sql.BinaryExpr) (compiledTest, error) {
	l, err := c.operand(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.operand(x.R)
	if err != nil {
		return nil, err
	}
	op := x.Op
	return func(ctx *evalCtx, row catalog.Tuple) (ok, null bool, err error) {
		var ltmp, rtmp catalog.Value
		lv, err := l.load(ctx, row, &ltmp)
		if err != nil {
			return false, false, err
		}
		rv, err := r.load(ctx, row, &rtmp)
		if err != nil {
			return false, false, err
		}
		if lv.IsNull() || rv.IsNull() {
			return false, true, nil
		}
		var c int
		if lv.Kind() == catalog.TypeInt && rv.Kind() == catalog.TypeInt {
			c = cmp.Compare(lv.Int(), rv.Int())
		} else if c, err = compare(*lv, *rv); err != nil {
			return false, false, err
		}
		switch op {
		case sql.OpEq:
			return c == 0, false, nil
		case sql.OpNe:
			return c != 0, false, nil
		case sql.OpLt:
			return c < 0, false, nil
		case sql.OpLe:
			return c <= 0, false, nil
		case sql.OpGt:
			return c > 0, false, nil
		default:
			return c >= 0, false, nil
		}
	}, nil
}

// compileFunc compiles scalar function calls. An aggregate is not a function
// of one row: the compiled aggregate (agg.go) replaces each aggregate call by
// a slot of its group row before compiling what surrounds it, so an
// aggregate that reaches this point — in a WHERE, a GROUP BY key or another
// aggregate's argument — is a compile error, and the statement falls back to
// the tree-walker, which reports it.
func (c *compiler) compileFunc(x *sql.FuncCall) (compiledExpr, error) {
	if IsAggregate(x.Name) {
		return nil, fmt.Errorf("exec: cannot compile aggregate %s", x.Name)
	}
	args := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		ca, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = ca
	}
	switch x.Name {
	case "ABS":
		if len(args) != 1 {
			return nil, errors.New("exec: ABS takes one argument")
		}
		arg := args[0]
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			v, err := arg(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
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
		}, nil
	case "COALESCE":
		// Every argument is evaluated, as the tree-walker does, so a later
		// argument's error still fails the row; nothing is collected, so
		// the call allocates nothing under the page latch.
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			first := catalog.Null
			for _, a := range args {
				v, err := a(ctx, row)
				if err != nil {
					return catalog.Null, err
				}
				if first.IsNull() {
					first = v
				}
			}
			return first, nil
		}, nil
	case "LENGTH":
		if len(args) != 1 {
			return nil, errors.New("exec: LENGTH takes one argument")
		}
		arg := args[0]
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			v, err := arg(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			if v.IsNull() {
				return catalog.Null, nil
			}
			return catalog.NewInt(int64(len(v.Str()))), nil
		}, nil
	case "UPPER", "LOWER":
		if len(args) != 1 {
			return nil, fmt.Errorf("exec: %s takes one argument", x.Name)
		}
		arg := args[0]
		upper := x.Name == "UPPER"
		return func(ctx *evalCtx, row catalog.Tuple) (catalog.Value, error) {
			v, err := arg(ctx, row)
			if err != nil {
				return catalog.Null, err
			}
			if v.IsNull() {
				return catalog.Null, nil
			}
			if upper {
				return catalog.NewString(strings.ToUpper(v.Str())), nil
			}
			return catalog.NewString(strings.ToLower(v.Str())), nil
		}, nil
	}
	return nil, fmt.Errorf("exec: unknown function %s", x.Name)
}
