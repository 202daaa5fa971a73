package exec

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// This file implements the compiled hash aggregate: a single-table
// COUNT/SUM/AVG/MIN/MAX with optional WHERE, GROUP BY, HAVING and LIMIT. The
// fold is itself the Table.ScanFilter predicate and page hook, so it runs
// against each stored tuple under the page latch and keeps nothing: per tuple
// it reads the tuple at the reader's version (skipping an invisible one),
// filters, finds the group and adds the aggregate inputs, then answers false,
// so the page walker copies no tuple. A slot current at the reader's version
// is read at slot 0 without the slot selector, and on a page clean there the
// WHERE selects the page's slots first (Plan.selectClean, with the kernel
// when the WHERE has one). It allocates only when a new group appears. Keys
// and inputs that are columns or parameters are read in place
// (operand.load). One key that is a column declared INT, DATE or BOOL groups
// by its int64 payload, through a direct-indexed window and a map beyond it;
// any other key tuple groups by catalog.HashTuple. When such a key is the
// GROUP BY and every call is COUNT(*), or COUNT or SUM of an INT column, a
// current slot on a page whose image holds them all is added from the int64
// vectors alone (the typed fold). Each aggregate's function is resolved when
// the statement compiles.
//
// After the walk, HAVING and the select list run once per group against the
// group row [key₀ … keyₖ₋₁, result₀ … resultₘ₋₁]: a subtree that prints like
// a GROUP BY expression reads a key slot, an aggregate call reads a result
// slot. Any other column reference — the tree-walker's representative-row
// semantics — does not compile, and the statement falls back.

// aggPlan is the compiled aggregate of a Plan. The fold evaluates the Plan's
// WHERE, the GROUP BY key and each aggregate call's argument (unused for
// COUNT(*)) per stored tuple; HAVING and the select list run per group.
type aggPlan struct {
	keys []operand
	// intKey is the declared type of the one GROUP BY key when that key is a
	// column of type INT, DATE or BOOL, which groups by its int64 payload;
	// TypeNull when the keys group by hash.
	intKey catalog.Type
	args   []operand
	fns    []aggFn // the aggregate function of each result slot
	// typed is where the typed fold reads a stored tuple at version slot 0:
	// the key's offset, then each call's INT argument's, -1 for COUNT(*);
	// nil when the statement has no typed fold.
	typed  []int
	having compiledExpr
	out    []compiledExpr // the select list, over the group row
}

// maxTyped is the most aggregate calls a typed fold has, so that the
// vectors it reads fit in the run state.
const maxTyped = 4

// groupRow is a statement's select list and HAVING rewritten over the group
// row, and the aggregate calls that fill its result slots.
type groupRow struct {
	keys   map[string]int // printed GROUP BY expression → key slot
	calls  []*sql.FuncCall
	out    []sql.Expr
	having sql.Expr
}

func slotName(kind byte, i int) string { return fmt.Sprintf("#%c%d", kind, i) }

// bind returns a copy of e over the group row, appending its aggregate calls
// to g.calls.
func (g *groupRow) bind(e sql.Expr) sql.Expr {
	return replaceOuter(e, func(x sql.Expr) sql.Expr {
		if i, ok := g.keys[sql.PrintExpr(x)]; ok {
			return &sql.ColumnRef{Name: slotName('k', i)}
		}
		if fc, ok := x.(*sql.FuncCall); ok && IsAggregate(fc.Name) {
			g.calls = append(g.calls, fc)
			return &sql.ColumnRef{Name: slotName('a', len(g.calls)-1)}
		}
		return nil
	})
}

// compileAgg compiles an aggregating statement into p: what the fold
// evaluates per tuple, then stmt's select list and HAVING bound over the group
// row. An error means some expression does not compile, and the statement
// takes the fallback path, which reports any error when it runs.
func (p *Plan) compileAgg(comp *compiler, stmt *sql.SelectStmt, items []sql.SelectItem) (err error) {
	a := &aggPlan{}
	g := &groupRow{keys: make(map[string]int, len(stmt.GroupBy))}
	if err := p.compileWhere(comp, stmt.Where); err != nil {
		return err
	}
	for i, ge := range stmt.GroupBy {
		k, err := comp.operand(ge)
		if err != nil {
			return err
		}
		a.keys = append(a.keys, k)
		g.keys[sql.PrintExpr(ge)] = i // a repeated key: either slot holds its value
	}
	a.intKey = intKeyType(comp, stmt.GroupBy)
	for _, it := range items {
		g.out = append(g.out, g.bind(it.Expr))
	}
	g.having = g.bind(stmt.Having)
	cols := make([]catalog.Column, len(stmt.GroupBy), len(stmt.GroupBy)+len(g.calls))
	for i := range cols {
		cols[i].Name = slotName('k', i)
	}
	for i, fc := range g.calls {
		arg := operand{kind: opLiteral, lit: starArg}
		if !fc.Star {
			if len(fc.Args) == 0 {
				return fmt.Errorf("exec: %s needs an argument", fc.Name)
			}
			if arg, err = comp.operand(fc.Args[0]); err != nil {
				return err
			}
		}
		a.args = append(a.args, arg)
		a.fns = append(a.fns, aggFnOf(fc))
		cols = append(cols, catalog.Column{Name: slotName('a', i)})
	}
	a.typed = typedShape(comp, a, stmt.GroupBy, g.calls)
	row := []binding{{schema: &catalog.Schema{Columns: cols}}}
	for i, e := range g.out {
		fn, err := comp.compileAt(row, e)
		if err != nil {
			return err
		}
		a.out = append(a.out, fn)
		p.columns = append(p.columns, itemName(items[i], i))
	}
	if g.having != nil {
		if a.having, err = comp.compileAt(row, g.having); err != nil {
			return err
		}
	}
	p.agg = a
	return nil
}

// intKeyType returns the declared type of a GROUP BY that is one column of
// type INT, DATE or BOOL — a key that groups by its int64 payload — and
// TypeNull for any other GROUP BY.
func intKeyType(comp *compiler, keys []sql.Expr) catalog.Type {
	if len(keys) != 1 {
		return catalog.TypeNull
	}
	switch _, t, _ := comp.column0(keys[0]); t {
	case catalog.TypeInt, catalog.TypeDate, catalog.TypeBool:
		return t
	default:
		return catalog.TypeNull
	}
}

// typedShape returns aggPlan.typed for a, or nil unless a groups by an int
// key and every call is COUNT(*), or COUNT or SUM of a column of type INT.
func typedShape(comp *compiler, a *aggPlan, keys []sql.Expr, calls []*sql.FuncCall) []int {
	if a.intKey == catalog.TypeNull || len(calls) > maxTyped {
		return nil
	}
	key, _, _ := comp.column0(keys[0])
	offs := []int{key}
	for i, fc := range calls {
		off, typ := -1, catalog.TypeInt
		if fn := a.fns[i]; fn != fnCountStar {
			if fc.Star || fn != fnCount && fn != fnSum {
				return nil
			}
			off, typ, _ = comp.column0(fc.Args[0])
		}
		if typ != catalog.TypeInt {
			return nil
		}
		offs = append(offs, off)
	}
	return offs
}

// aggPartial is the group table of one fold: groups in discovery order, each
// a key and one aggState per aggregate call. It is a partial aggregate —
// merge combines the tables of two folds over disjoint tuples into the one a
// single fold over both would build — so folds over parts of a relation can
// run apart and combine.
type aggPartial struct {
	fns    []aggFn
	width  int          // key values per group
	intKey catalog.Type // aggPlan.intKey
	n      int          // groups
	// win is an int key's window: win[d] is one more than the group of
	// payload winLo+d, 0 while it has none. It starts at the first payload
	// seen and grows by doubling up to maxWindow payloads.
	win   []int32
	winLo int64
	// first maps an int key's payload outside the window to its group, or a
	// hashed key tuple's hash to the newest group with that hash. It is made
	// on first use.
	first  map[uint64]int
	next   []int // hashed keys, per group: an older group with the same hash, or -1
	null   int   // an int key: the NULL key's group, or -1
	keys   []catalog.Value
	states []aggState
}

// The window of an int key covers from minWindow payloads, when the first
// key arrives, up to maxWindow.
const (
	minWindow = 64
	maxWindow = 4096
)

func newAggPartial(a *aggPlan) aggPartial {
	return aggPartial{fns: a.fns, width: len(a.keys), intKey: a.intKey, null: -1}
}

func (p *aggPartial) len() int { return p.n }

func (p *aggPartial) key(g int) catalog.Tuple {
	return p.keys[g*p.width : (g+1)*p.width : (g+1)*p.width]
}

func (p *aggPartial) statesOf(g int) []aggState {
	n := len(p.fns)
	return p.states[g*n : (g+1)*n]
}

// group returns the aggregate states of key's group, adding the group — and
// copying key — if it is new. Keys group by catalog.TuplesEqual, so NULL keys
// share one group.
func (p *aggPartial) group(key catalog.Tuple) ([]aggState, error) {
	if p.intKey != catalog.TypeNull {
		return p.groupInt(&key[0])
	}
	h := catalog.HashTuple(key)
	if p.first == nil {
		p.first = make(map[uint64]int)
	}
	head, seen := p.first[h]
	if !seen {
		head = -1
	}
	for g := head; g >= 0; g = p.next[g] {
		if catalog.TuplesEqual(p.key(g), key) {
			return p.statesOf(g), nil
		}
	}
	p.first[h] = p.n
	p.next = append(p.next, head)
	p.keys = append(p.keys, key...)
	return p.newGroup(), nil
}

// groupInt is group for an int key, whose value v is read in place and
// copied only into a new group.
func (p *aggPartial) groupInt(v *catalog.Value) ([]aggState, error) {
	if v.IsNull() {
		if p.null < 0 {
			p.null = p.n
			p.keys = append(p.keys, catalog.Null)
			return p.newGroup(), nil
		}
		return p.statesOf(p.null), nil
	}
	if v.Kind() != p.intKey {
		return nil, fmt.Errorf("exec: %v value in a GROUP BY column of type %v", v.Kind(), p.intKey)
	}
	states, added := p.groupPayload(v.Int())
	if added {
		p.keys = append(p.keys, *v)
	}
	return states, nil
}

// groupPayload returns the aggregate states of the group of the non-NULL int
// key with payload x, adding the group when it is new; the caller then
// appends its key to p.keys. A payload within maxWindow of the first one
// seen finds its group in the window, which widens by doubling as far as
// the payload; any other goes through the map.
func (p *aggPartial) groupPayload(x int64) (states []aggState, added bool) {
	d := uint64(x) - uint64(p.winLo)
	if x >= p.winLo && d < uint64(len(p.win)) && p.win[d] > 0 {
		return p.statesOf(int(p.win[d] - 1)), false
	}
	if p.win == nil {
		p.win, p.winLo, d = make([]int32, minWindow), x, 0
	}
	if x >= p.winLo && d < maxWindow {
		if n := len(p.win); d >= uint64(n) {
			for uint64(n) <= d {
				n *= 2
			}
			p.win = append(p.win, make([]int32, n-len(p.win))...)
		}
		p.win[d] = int32(p.n + 1)
	} else {
		if g, seen := p.first[uint64(x)]; seen {
			return p.statesOf(g), false
		}
		if p.first == nil {
			p.first = make(map[uint64]int)
		}
		p.first[uint64(x)] = p.n
	}
	return p.newGroup(), true
}

// newGroup adds a group, whose key the caller has appended to p.keys.
func (p *aggPartial) newGroup() []aggState {
	p.n++
	for _, fn := range p.fns {
		p.states = append(p.states, aggState{fn: fn})
	}
	return p.statesOf(p.n - 1)
}

// merge adds q's groups to p; groups new to p follow p's own, in q's order.
func (p *aggPartial) merge(q *aggPartial) error {
	for g := 0; g < q.len(); g++ {
		dst, err := p.group(q.key(g))
		if err != nil {
			return err
		}
		src := q.statesOf(g)
		for i := range dst {
			if err := dst[i].merge(&src[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// aggRun is the state of one aggregate Execute.
type aggRun struct {
	p    *Plan
	ctx  *evalCtx
	kern bounds        // the kernel bound for the fold
	key  catalog.Tuple // the current tuple's hashed group key (scratch)
	part aggPartial
	// The current page's image of the typed fold's key and, per call, its
	// argument (nil for COUNT(*)), when the page holds them (image).
	keyVec []int64
	argVec [maxTyped][]int64
}

func (p *Plan) newAggRun(ctx *evalCtx) *aggRun {
	r := &aggRun{p: p, ctx: ctx, part: newAggPartial(p.agg)}
	if p.agg.intKey == catalog.TypeNull {
		r.key = make(catalog.Tuple, len(p.agg.keys))
	}
	return r
}

// executeAgg runs an aggregate plan into sink: fold the table, then
// evaluate HAVING and the select list per group.
func (p *Plan) executeAgg(tbl Table, ctx *evalCtx, sink Sink) error {
	r := p.newAggRun(ctx)
	if err := r.foldTable(tbl); err != nil {
		return err
	}
	return r.finish(sink)
}

// foldTable folds every tuple of tbl the WHERE accepts: through the index
// access path when the WHERE's equality conjuncts reach one, else in place
// under the page latch.
func (r *aggRun) foldTable(tbl Table) error {
	if rids, ok := r.p.lookupRIDs(r.ctx, tbl); ok {
		for _, rid := range rids {
			t, err := tbl.Get(rid)
			if err != nil {
				if errors.Is(err, storage.ErrNotFound) {
					continue // slot concurrently freed; legal skip
				}
				return fmt.Errorf("exec: indexed read of %v: %w", rid, err)
			}
			if _, err := r.fold(t); err != nil {
				return err
			}
		}
		return nil
	}
	r.kern = r.p.kernel.bind(r.ctx)
	f := storage.Filter{Pred: r.fold, Page: r.foldPage, VN: r.ctx.vn}
	return tbl.ScanFilter(f, keepNothing)
}

// fold adds t to its group when t exists at the reader's version and passes
// the WHERE. It is the predicate handed to Table.ScanFilter and never keeps t,
// so it runs under the page latch: it neither retains t (values copied out of
// it are immutable) nor allocates, except to admit a new group or to build an
// error.
func (r *aggRun) fold(t catalog.Tuple) (bool, error) {
	if !r.ctx.at(t) {
		return false, nil
	}
	if r.p.filter != nil {
		if ok, err := r.p.filter(r.ctx, t); !ok || err != nil {
			return false, err
		}
	}
	return false, r.add(t)
}

// foldPage is fold for a whole page (Table.ScanFilter's page contract), and
// keeps nothing. On a page clean at the reader's version every tuple exists
// in its current values, so the WHERE selects the slots to add
// (selectClean); the slots selected lie before any slot whose WHERE failed,
// so the first error in slot order is the one returned. On any other page
// each live slot is folded in slot order, a current one read at slot 0
// without the slot selector.
func (r *aggRun) foldPage(v storage.PageView, sel []int32) ([]int32, error) {
	typed := r.image(v)
	if v.Clean() {
		sel, err := r.p.selectClean(r.ctx, &r.kern, v, sel)
		for _, si := range sel {
			if aerr := r.addSlot(&v, int(si), typed); aerr != nil {
				return sel[:0], aerr
			}
		}
		return sel[:0], err
	}
	for si := 0; si < v.Slots(); si++ {
		if !v.Live(si) {
			continue
		}
		current := v.Current(si)
		if current {
			r.ctx.current()
		} else if !r.ctx.at(v.Tuple(si)) {
			continue
		}
		if r.p.filter != nil {
			if ok, err := r.p.filter(r.ctx, v.Tuple(si)); !ok || err != nil {
				if err != nil {
					return sel, err
				}
				continue
			}
		}
		if err := r.addSlot(&v, si, typed && current); err != nil {
			return sel, err
		}
	}
	return sel, nil
}

// image points the run's vectors at v's image of the typed fold's key and
// arguments, and reports whether v holds all of them.
func (r *aggRun) image(v storage.PageView) bool {
	offs := r.p.agg.typed
	if offs == nil {
		return false
	}
	if r.keyVec = v.Ints(offs[0], r.p.agg.intKey); r.keyVec == nil {
		return false
	}
	for i, off := range offs[1:] {
		if off >= 0 {
			if r.argVec[i] = v.Ints(off, catalog.TypeInt); r.argVec[i] == nil {
				return false
			}
		}
	}
	return true
}

// addSlot adds slot si of v, which exists in the slot the context points at
// and passes the WHERE, to its group: through add or, when typed, which
// means the slot is current, from the page's image, as aggState.add adds an
// INT value or a row for COUNT(*), copying the key out of the tuple only
// into a new group.
func (r *aggRun) addSlot(v *storage.PageView, si int, typed bool) error {
	if !typed {
		return r.add(v.Tuple(si))
	}
	states, added := r.part.groupPayload(r.keyVec[si])
	if added {
		r.part.keys = append(r.part.keys, v.Tuple(si)[r.p.agg.typed[0]])
	}
	for i := range states {
		s := &states[i]
		if s.fn == fnSum {
			x := r.argVec[i][si]
			var ok bool
			if s.sumI, ok = addInt(s.sumI, x); !ok {
				return errSumOverflow
			}
			s.sumF += float64(x)
		}
		s.count++
	}
	return nil
}

// add adds t, which exists and passes the WHERE, to its group.
func (r *aggRun) add(t catalog.Tuple) error {
	args := r.p.agg.args
	states, err := r.group(t)
	if err != nil {
		return err
	}
	var tmp catalog.Value
	for i := range states {
		s := &states[i]
		if s.fn == fnCountStar {
			s.count++
			continue
		}
		v, err := args[i].load(r.ctx, t, &tmp)
		if err != nil {
			return err
		}
		if err := s.add(v); err != nil {
			return err
		}
	}
	return nil
}

// group returns the aggregate states of t's group.
func (r *aggRun) group(t catalog.Tuple) ([]aggState, error) {
	in := r.p.agg
	var tmp catalog.Value
	if in.intKey != catalog.TypeNull {
		v, err := in.keys[0].load(r.ctx, t, &tmp)
		if err != nil {
			return nil, err
		}
		return r.part.groupInt(v)
	}
	for i := range in.keys {
		v, err := in.keys[i].load(r.ctx, t, &tmp)
		if err != nil {
			return nil, err
		}
		r.key[i] = *v
	}
	return r.part.group(r.key)
}

// finish evaluates HAVING and the select list over each group row, in
// discovery order, and delivers each result row to sink, up to the LIMIT.
// Without GROUP BY there is exactly one group, empty input included.
func (r *aggRun) finish(sink Sink) error {
	a, part := r.p.agg, &r.part
	if part.len() == 0 && part.width == 0 {
		part.newGroup()
	}
	n := part.len()
	if r.p.limit != nil {
		n = min(n, int(*r.p.limit))
	}
	if rows, ok := sink.(*Rows); ok {
		rows.reserve(n, len(a.out))
	}
	row := make(catalog.Tuple, part.width+len(a.fns))
	t := r.ctx.scratch(len(a.out))
	for g, added := 0, 0; g < part.len() && added < n; g++ {
		copy(row, part.key(g))
		states := part.statesOf(g)
		for i := range states {
			row[part.width+i] = states[i].result()
		}
		if a.having != nil {
			v, err := a.having(r.ctx, row)
			if err != nil {
				return err
			}
			if !truthy(v) {
				continue
			}
		}
		for i, fn := range a.out {
			v, err := fn(r.ctx, row)
			if err != nil {
				return err
			}
			t[i] = v
		}
		sink.Add(t)
		added++
	}
	return nil
}
