package exec

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// This file implements how a compiled WHERE decides a page clean at the
// reader's version: in one pass over the page (Plan.selectClean), which the
// scan's and the aggregate's page hooks share. A WHERE that is an AND
// of up to maxKernel comparisons, each between a column declared INT, DATE or
// BOOL and a literal or a parameter, also compiles beside its closure to a
// kernel, one term per comparison. Per execution each term loads its operand
// once and becomes a range of int64 payloads (bind), and the loop tests the
// page's int64 image of each column (storage.PageView.Ints) against the
// ranges: no closure call, no Value branching and no read of the wide stored
// tuple per slot.
//
// The kernel decides a page only when every value it reads there is of its
// column's type, which the page's image counts, and an execution only when
// every operand is bound, not NULL and of its column's type. Two such values
// compare by their payloads — as catalog.Compare orders INT, DATE and BOOL —
// and no comparison between them can fail, so the AND is the conjunction of
// the terms. Anything else (a NULL, a value of another kind, an unbound
// parameter, a FLOAT operand, a date string) sends the page to the WHERE's
// closure, which keeps its NULL handling, coercions and errors.

// maxKernel is the most comparisons a kernel has, so that its bound form
// fits in the run state, which a scan moves to the heap, in a few words.
const maxKernel = 3

// kernel is a WHERE's terms, in the order its AND names them.
type kernel []kterm

// kterm is one comparison `column op operand`, with the column on the left.
type kterm struct {
	off int          // the column's offset in a stored tuple at version slot 0
	typ catalog.Type // the column's declared type
	op  sql.BinaryOp
	rhs operand // opLiteral or opParam
}

// bounds is a kernel bound for one execution: a tuple passes term b when the
// value at b.off is of kind b.typ and its payload x satisfies
// (b.lo <= x && x <= b.hi) != b.neg. n is 0 when the WHERE has no kernel or
// an operand is off the typed path.
type bounds struct {
	n int
	b [maxKernel]kbound
}

type kbound struct {
	lo, hi int64
	typ    catalog.Type
	off    int32
	neg    bool
}

// flipped is op with its operands swapped: a < b is b > a.
var flipped = map[sql.BinaryOp]sql.BinaryOp{
	sql.OpEq: sql.OpEq, sql.OpNe: sql.OpNe,
	sql.OpLt: sql.OpGt, sql.OpLe: sql.OpGe, sql.OpGt: sql.OpLt, sql.OpGe: sql.OpLe,
}

// selectClean appends to sel the live slots of v, a page clean at the
// reader's version, that pass the WHERE, in slot order. Every tuple there is
// visible in its current values. When the kernel is bound in k and the page
// holds an image of every column it reads (storage.PageView.Ints), the
// kernel decides the page from the image alone, with X100's selection
// vector: the first term selects among the live slots and each further one
// keeps in place the slots that pass it. Otherwise the WHERE's closure
// decides each live slot, and its first error, in slot order, ends the page:
// sel then holds the slots accepted before it. sel is reused from page to
// page, so growing it to a page's slots once serves the whole scan.
func (p *Plan) selectClean(ctx *evalCtx, k *bounds, v storage.PageView, sel []int32) ([]int32, error) {
	ctx.current()
	n := v.Slots()
	if cap(sel) < n {
		sel = make([]int32, 0, n)
	}
	terms := k.b[:k.n] // empty without a WHERE
	var cols [maxKernel][]int64
	for i := range terms {
		if cols[i] = v.Ints(int(terms[i].off), terms[i].typ); cols[i] == nil {
			terms = terms[:0]
			break
		}
	}
	if len(terms) > 0 {
		b := terms[0]
		for si, x := range cols[0] {
			if (x >= b.lo && x <= b.hi) != b.neg && v.Live(si) {
				sel = append(sel, int32(si))
			}
		}
		for i := 1; i < len(terms); i++ {
			b, kept := terms[i], sel[:0]
			for _, si := range sel {
				if x := cols[i][si]; (x >= b.lo && x <= b.hi) != b.neg {
					kept = append(kept, si)
				}
			}
			sel = kept
		}
		return sel, nil
	}
	for si := 0; si < n; si++ {
		keep := v.Live(si)
		if keep && p.filter != nil {
			var err error
			if keep, err = p.filter(ctx, v.Tuple(si)); err != nil {
				return sel, err
			}
		}
		if keep {
			sel = append(sel, int32(si))
		}
	}
	return sel, nil
}

// compileKernel returns the kernel of where, or nil when where is not an AND
// of at most maxKernel comparisons between a column of type INT, DATE or
// BOOL and a literal or parameter.
func (c *compiler) compileKernel(where sql.Expr) kernel {
	var k kernel
	var walk func(e sql.Expr) bool
	walk = func(e sql.Expr) bool {
		x, ok := e.(*sql.BinaryExpr)
		if !ok {
			return false
		}
		if x.Op == sql.OpAnd {
			return walk(x.L) && walk(x.R)
		}
		if _, ok := flipped[x.Op]; !ok {
			return false
		}
		col, other, op := x.L, x.R, x.Op
		if _, ok := col.(*sql.ColumnRef); !ok {
			col, other, op = x.R, x.L, flipped[x.Op]
		}
		t, ok := c.kernelTerm(col, other, op)
		k = append(k, t)
		return ok && len(k) <= maxKernel
	}
	if !walk(where) {
		return nil
	}
	return k
}

// kernelTerm compiles `col op other` as a kernel term, if it is one.
func (c *compiler) kernelTerm(col, other sql.Expr, op sql.BinaryOp) (kterm, bool) {
	switch other.(type) {
	case *sql.Literal, *sql.Param:
	default:
		return kterm{}, false
	}
	off, typ, _ := c.column0(col)
	t := kterm{off: off, typ: typ, op: op}
	switch t.typ {
	case catalog.TypeInt, catalog.TypeDate, catalog.TypeBool:
	default:
		return kterm{}, false
	}
	var err error
	if t.rhs, err = c.operand(other); err != nil {
		return kterm{}, false
	}
	return t, true
}

// bind loads each term's operand in ctx and returns the kernel's ranges, or
// no ranges when an operand is unbound, NULL or not of its column's type.
func (k kernel) bind(ctx *evalCtx) bounds {
	var out bounds
	for _, t := range k {
		v, err := t.rhs.load(ctx, nil, nil)
		if err != nil || v.Kind() != t.typ {
			return bounds{}
		}
		b := kbound{lo: math.MinInt64, hi: math.MaxInt64, typ: t.typ, off: int32(t.off)}
		x := v.Int()
		switch t.op {
		case sql.OpEq:
			b.lo, b.hi = x, x
		case sql.OpNe:
			b.lo, b.hi, b.neg = x, x, true
		case sql.OpLt:
			b.hi = x - 1
			if x == math.MinInt64 {
				b.lo, b.hi = 1, 0 // nothing is below it
			}
		case sql.OpLe:
			b.hi = x
		case sql.OpGt:
			b.lo = x + 1
			if x == math.MaxInt64 {
				b.lo, b.hi = 1, 0 // nothing is above it
			}
		default: // OpGe
			b.lo = x
		}
		out.b[out.n] = b
		out.n++
	}
	return out
}
