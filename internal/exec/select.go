package exec

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Sink receives a result as a plan produces it: Begin with the column names,
// then Add per row, which a compiled plan calls with its reused scratch row
// under the page latch (Table.ScanFilter): Add must not block or call into
// the table, and must copy what it keeps. After a failed execution the
// caller discards what the sink holds.
type Sink interface {
	Begin(columns []string)
	Add(row catalog.Tuple)
}

// Rows is a materialized result, and the Sink embedded callers collect into.
type Rows struct {
	Columns []string
	Tuples  []catalog.Tuple
	free    []catalog.Value // unused rest of the current row chunk
}

func (r *Rows) Begin(columns []string) { r.Columns = columns }

// Add copies row into a capped row of the current chunk (chunks double, up
// to maxChunkRows rows), so appending to one row cannot reach the next.
func (r *Rows) Add(row catalog.Tuple) {
	w := len(row)
	if len(r.free) < w {
		r.free = make([]catalog.Value, min(max(len(r.Tuples), 1), maxChunkRows)*w)
	}
	t := catalog.Tuple(r.free[:w:w])
	r.free = r.free[w:]
	r.Tuples = append(r.Tuples, t)
	copy(t, row)
}

// reserve sizes the row list and the current chunk for n more rows of w.
func (r *Rows) reserve(n, w int) {
	r.Tuples, r.free = slices.Grow(r.Tuples, n), make([]catalog.Value, n*w)
}

// Feed is how a materialized result enters a sink: unless err reports it
// failed, and then Feed returns err, it delivers rows to sink. An empty *Rows
// adopts rows as they are, so a materialized result is built once.
func Feed(sink Sink, rows *Rows, err error) error {
	if err != nil {
		return err
	}
	if r, ok := sink.(*Rows); ok && r.Tuples == nil {
		*r = *rows
		return nil
	}
	sink.Begin(rows.Columns)
	for _, t := range rows.Tuples {
		sink.Add(t)
	}
	return nil
}

// Collect materializes what run delivers to a sink; a failed run yields none.
func Collect(run func(Sink) error) (*Rows, error) {
	rows := &Rows{}
	if err := run(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Tuples) }

// String renders the result as an aligned ASCII table for examples and
// tools.
func (r *Rows) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Tuples))
	for ti, t := range r.Tuples {
		cells[ti] = make([]string, len(t))
		for i, v := range t {
			s := v.String()
			cells[ti][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	for _, row := range cells {
		b.WriteByte('\n')
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
	}
	return b.String()
}

// Select runs a SELECT statement against cat and materializes the result.
// It has no reader version, so a statement that reads a Versioned relation
// fails (Plan.ExecuteInto reads one).
func Select(cat Catalog, stmt *sql.SelectStmt, params Params) (*Rows, error) {
	return selectStmt(cat, stmt, &env{params: params})
}

// SelectAt is Select for a reader at version vn: it reads every Versioned
// relation at vn.
func SelectAt(cat Catalog, stmt *sql.SelectStmt, params Params, vn int64) (*Rows, error) {
	return selectStmt(cat, stmt, &env{params: params, vn: vn, at: true})
}

// selectStmt runs stmt for the reader ev describes; ev's bindings are empty.
func selectStmt(cat Catalog, stmt *sql.SelectStmt, ev *env) (*Rows, error) {
	// Bind FROM tables and produce the joined row set (nested loops with
	// join predicates applied as each table joins in; with no FROM, one
	// empty row). Single-table queries may be served by an index access
	// path on the WHERE's equality conjuncts.
	rows, err := joinFrom(cat, stmt.From, ev, stmt.Where)
	if err != nil {
		return nil, err
	}
	items := expandStars(stmt, ev)
	grouped := len(stmt.GroupBy) > 0 || anyAggregate(items) || stmt.Having != nil
	// Without grouping, ORDER BY or DISTINCT no row past the LIMIT's is
	// read, so the WHERE stops there and only kept rows are projected.
	limit := len(rows)
	if stmt.Limit != nil && !grouped && len(stmt.OrderBy) == 0 && !stmt.Distinct {
		limit = min(limit, int(max(*stmt.Limit, 0)))
	}
	// WHERE.
	if stmt.Where != nil {
		kept := rows[:0]
		for _, row := range rows {
			if len(kept) == limit {
				break
			}
			v, err := ev.eval(stmt.Where, row)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	rows = rows[:min(limit, len(rows))]
	if len(items) == 0 {
		return nil, errors.New("exec: SELECT * requires a FROM clause")
	}
	var out *Rows
	if grouped {
		out, err = aggregate(stmt, items, rows, ev)
	} else {
		out, err = project(items, rows, ev)
	}
	if err != nil {
		return nil, err
	}
	if len(stmt.OrderBy) > 0 {
		if err := orderBy(stmt, out, rows, ev); err != nil {
			return nil, err
		}
	}
	if stmt.Distinct {
		out.Tuples = distinct(out.Tuples)
	}
	if stmt.Limit != nil && int64(len(out.Tuples)) > *stmt.Limit {
		out.Tuples = out.Tuples[:*stmt.Limit]
	}
	return out, nil
}

// joinFrom binds each FROM entry into ev and nested-loop joins them,
// applying ON predicates as soon as their table joins; with no FROM it
// yields one empty row. A versioned relation
// binds its base columns, and each stored tuple joins as the reader at ev.vn
// sees it, or not at all when it does not exist at that version. where
// enables the index access path for single-table queries.
func joinFrom(cat Catalog, from []sql.TableRef, ev *env, where sql.Expr) ([]catalog.Tuple, error) {
	rows := []catalog.Tuple{{}}
	for fi, tr := range from {
		tbl, err := cat.Table(tr.Table)
		if err != nil {
			return nil, err
		}
		sc := tbl.Schema()
		var opts *CompileOptions
		if v, ok := tbl.(Versioned); ok {
			if !ev.at {
				return nil, fmt.Errorf("%w: %s", errNoVersion, tr.Table)
			}
			opts = v.Versions()
			sc = opts.base(sc)
		}
		offset := 0
		for _, b := range ev.bindings {
			if strings.EqualFold(b.name, tr.Binding()) {
				return nil, fmt.Errorf("exec: duplicate range variable %q (alias needed)", tr.Binding())
			}
			offset += len(b.schema.Columns)
		}
		ev.bindings = append(ev.bindings, binding{name: tr.Binding(), schema: sc, offset: offset})
		var scanned []catalog.Tuple
		var ok bool
		if len(from) == 1 {
			if scanned, ok, err = accessPath(tbl, ev.bindings[0], opts, where, ev.params); err != nil {
				return nil, err
			}
		}
		if !ok {
			tbl.Scan(func(_ storage.RID, t catalog.Tuple) bool {
				scanned = append(scanned, t)
				return true
			})
		}
		if opts != nil {
			// The visible tuples' base columns share one allocation.
			w := len(opts.Slots[0])
			vals, visible := make([]catalog.Value, len(scanned)*w), scanned[:0]
			for _, t := range scanned {
				if base := catalog.Tuple(vals[:w:w]); opts.read(base, t, ev.vn) {
					visible, vals = append(visible, base), vals[w:]
				}
			}
			scanned = visible
		}
		if fi == 0 {
			rows = scanned
			continue
		}
		var joined []catalog.Tuple
		for _, left := range rows {
			for _, right := range scanned {
				row := make(catalog.Tuple, 0, len(left)+len(right))
				row = append(row, left...)
				row = append(row, right...)
				if tr.On != nil {
					v, err := ev.eval(tr.On, row)
					if err != nil {
						return nil, err
					}
					if !truthy(v) {
						continue
					}
				}
				joined = append(joined, row)
			}
		}
		rows = joined
	}
	return rows, nil
}

// expandStars replaces `*` select items with explicit column references.
func expandStars(stmt *sql.SelectStmt, ev *env) []sql.SelectItem {
	var items []sql.SelectItem
	for _, it := range stmt.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, b := range ev.bindings {
			for _, c := range b.schema.Columns {
				items = append(items, sql.SelectItem{
					Expr:  &sql.ColumnRef{Table: b.name, Name: c.Name},
					Alias: c.Name,
				})
			}
		}
	}
	return items
}

func anyAggregate(items []sql.SelectItem) bool {
	for _, it := range items {
		found := false
		sql.WalkExpr(it.Expr, func(e sql.Expr) bool {
			if fc, ok := e.(*sql.FuncCall); ok && IsAggregate(fc.Name) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func itemName(it sql.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sql.ColumnRef); ok {
		return cr.Name
	}
	if fc, ok := it.Expr.(*sql.FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return fmt.Sprintf("col%d", i+1)
}

// project evaluates the select list over every row (no aggregation).
func project(items []sql.SelectItem, rows []catalog.Tuple, ev *env) (*Rows, error) {
	out := &Rows{}
	for i, it := range items {
		out.Columns = append(out.Columns, itemName(it, i))
	}
	for _, row := range rows {
		t := make(catalog.Tuple, len(items))
		for i, it := range items {
			v, err := ev.eval(it.Expr, row)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// aggFn is an aggregate function, resolved from its name once, when the
// statement is compiled or its aggregate calls are bound.
type aggFn uint8

const (
	fnCount     aggFn = iota // COUNT(x): rows with x non-NULL
	fnCountStar              // COUNT(*): rows
	fnSum
	fnAvg
	fnMin
	fnMax
)

var aggFnNames = [...]string{fnCount: "COUNT", fnCountStar: "COUNT", fnSum: "SUM", fnAvg: "AVG", fnMin: "MIN", fnMax: "MAX"}

func (f aggFn) String() string { return aggFnNames[f] }

// aggFnOf resolves an aggregate call (IsAggregate) to its function. COUNT
// names fnCount first, so only COUNT(*) is fnCountStar.
func aggFnOf(fc *sql.FuncCall) aggFn {
	if fc.Star && fc.Name == "COUNT" {
		return fnCountStar
	}
	return aggFn(slices.Index(aggFnNames[:], fc.Name))
}

// starArg is what any starred aggregate call but COUNT(*) — SUM(*), MIN(*)
// and the like — folds per row.
var starArg = catalog.NewInt(1)

// errSumOverflow fails a SUM whose INT total leaves the int64 range, rather
// than answering a wrapped sum.
var errSumOverflow = errors.New("exec: SUM of INT values overflows int64")

// addInt returns a + b, or false when the sum overflows.
func addInt(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

// aggState accumulates one aggregate function over one group. count is the
// rows it counted (COUNT) or the non-NULL values it took (the others); SUM
// keeps an exact INT total beside the float one until a FLOAT arrives; MIN
// and MAX keep the extreme value in ext.
type aggState struct {
	fn    aggFn
	isFlt bool
	count int64
	sumI  int64
	sumF  float64
	ext   catalog.Value
}

// add folds one value of the aggregate's argument into a. COUNT(*) takes no
// value and ignores v.
func (a *aggState) add(v *catalog.Value) error {
	if a.fn == fnCountStar {
		a.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	switch a.fn {
	case fnSum, fnAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("exec: %v over non-numeric %v", a.fn, v.Kind())
		}
		if v.Kind() == catalog.TypeFloat {
			a.isFlt = true
		} else if a.fn == fnSum {
			var ok bool
			if a.sumI, ok = addInt(a.sumI, v.Int()); !ok {
				return errSumOverflow
			}
		}
		a.sumF += v.Float()
	case fnMin, fnMax:
		if err := a.extreme(v); err != nil {
			return err
		}
	case fnCount, fnCountStar: // counted below
	}
	a.count++
	return nil
}

// extreme keeps v in ext if it is the first value, or a new minimum (MIN) or
// maximum (MAX).
func (a *aggState) extreme(v *catalog.Value) error {
	if a.count == 0 {
		a.ext = *v
		return nil
	}
	c, err := compare(*v, a.ext)
	if err != nil {
		return err
	}
	if a.fn == fnMin && c < 0 || a.fn == fnMax && c > 0 {
		a.ext = *v
	}
	return nil
}

// merge adds what b accumulated to a, as if a had seen b's rows itself: the
// combine step of a partial aggregate. a and b aggregate the same function.
func (a *aggState) merge(b *aggState) error {
	if b.count == 0 {
		return nil
	}
	switch a.fn {
	case fnMin, fnMax:
		if err := a.extreme(&b.ext); err != nil {
			return err
		}
	case fnSum:
		var ok bool
		if a.sumI, ok = addInt(a.sumI, b.sumI); !ok {
			return errSumOverflow
		}
	case fnCount, fnCountStar, fnAvg: // counts and float sums merge below
	}
	a.count += b.count
	a.sumF += b.sumF
	a.isFlt = a.isFlt || b.isFlt
	return nil
}

func (a *aggState) result() catalog.Value {
	switch {
	case a.fn == fnCount || a.fn == fnCountStar:
		return catalog.NewInt(a.count)
	case a.count == 0:
		return catalog.Null
	case a.fn == fnMin || a.fn == fnMax:
		return a.ext
	case a.fn == fnAvg:
		return catalog.NewFloat(a.sumF / float64(a.count))
	case a.isFlt:
		return catalog.NewFloat(a.sumF)
	}
	return catalog.NewInt(a.sumI)
}

// group is one GROUP BY bucket: its key values, a representative source
// row, and the accumulated aggregate states (in discovery order of the
// aggregate calls).
type group struct {
	key    catalog.Tuple
	rep    catalog.Tuple
	states []*aggState
}

// replaceOuter returns a copy of e in which every outermost subtree for which
// match returns non-nil is replaced by what it returned. match sees the
// copy's nodes top-down, so a matched node still holds its own children.
func replaceOuter(e sql.Expr, match func(sql.Expr) sql.Expr) sql.Expr {
	if e == nil {
		return nil
	}
	e = sql.CloneExpr(e)
	repl := make(map[sql.Expr]sql.Expr)
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if r := match(x); r != nil {
			repl[x] = r
			return false
		}
		return true
	})
	return sql.TransformExpr(e, func(x sql.Expr) sql.Expr {
		if r, ok := repl[x]; ok {
			return r
		}
		return x
	})
}

// aggregate implements GROUP BY / HAVING / aggregate-only queries via hash
// aggregation.
func aggregate(stmt *sql.SelectStmt, items []sql.SelectItem, rows []catalog.Tuple, ev *env) (*Rows, error) {
	// Each aggregate call in the select list and HAVING becomes a literal
	// that takes the group's result; the expression around it is then
	// evaluated once, against the group's representative row.
	var aggCalls []*sql.FuncCall
	var results []*sql.Literal
	bind := func(e sql.Expr) sql.Expr {
		return replaceOuter(e, func(x sql.Expr) sql.Expr {
			fc, ok := x.(*sql.FuncCall)
			if !ok || !IsAggregate(fc.Name) {
				return nil
			}
			lit := &sql.Literal{}
			aggCalls = append(aggCalls, fc)
			results = append(results, lit)
			return lit
		})
	}
	exprs := make([]sql.Expr, len(items))
	for i, it := range items {
		exprs[i] = bind(it.Expr)
	}
	having := bind(stmt.Having)
	groups := make(map[uint64][]*group)
	var order []*group

	newGroup := func(key, rep catalog.Tuple) *group {
		g := &group{key: key, rep: rep}
		for _, fc := range aggCalls {
			g.states = append(g.states, &aggState{fn: aggFnOf(fc)})
		}
		return g
	}

	for _, row := range rows {
		key := make(catalog.Tuple, len(stmt.GroupBy))
		for i, ge := range stmt.GroupBy {
			v, err := ev.eval(ge, row)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		h := catalog.HashTuple(key)
		var g *group
		for _, cand := range groups[h] {
			if catalog.TuplesEqual(cand.key, key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = newGroup(key, row)
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		for i, fc := range aggCalls {
			v := starArg
			if !fc.Star {
				var err error
				if v, err = ev.eval(fc.Args[0], row); err != nil {
					return nil, err
				}
			}
			if err := g.states[i].add(&v); err != nil {
				return nil, err
			}
		}
	}
	// Aggregate-only query over zero rows still yields one row (SUM()=NULL,
	// COUNT(*)=0) when there is no GROUP BY.
	if len(order) == 0 && len(stmt.GroupBy) == 0 {
		order = append(order, newGroup(catalog.Tuple{}, nil))
	}

	out := &Rows{}
	for i, it := range items {
		out.Columns = append(out.Columns, itemName(it, i))
	}
	for _, g := range order {
		for i, lit := range results {
			lit.Value = g.states[i].result()
		}
		if having != nil {
			hv, err := ev.eval(having, g.rep)
			if err != nil {
				return nil, err
			}
			if !truthy(hv) {
				continue
			}
		}
		t := make(catalog.Tuple, len(exprs))
		for i, e := range exprs {
			v, err := ev.eval(e, g.rep)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

func distinct(tuples []catalog.Tuple) []catalog.Tuple {
	seen := make(map[uint64][]catalog.Tuple)
	out := tuples[:0]
	for _, t := range tuples {
		h := catalog.HashTuple(t)
		dup := false
		for _, prev := range seen[h] {
			if catalog.TuplesEqual(prev, t) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], t)
			out = append(out, t)
		}
	}
	return out
}

// orderBy sorts the result. Each ORDER BY key resolves either against the
// output columns (by alias or column name, ignoring any table qualifier —
// this covers aggregate results) or, failing that, against the source rows,
// which works for non-aggregated queries where source rows and output rows
// are parallel.
func orderBy(stmt *sql.SelectStmt, out *Rows, rows []catalog.Tuple, ev *env) error {
	type keyed struct {
		tuple catalog.Tuple
		keys  catalog.Tuple
	}
	// Environment over the output columns so ORDER BY can reference
	// aliases and aggregate result columns. Table qualifiers are dropped
	// when the bare name is an output column ("r.region" matches output
	// column "region").
	outCols := make([]catalog.Column, len(out.Columns))
	for i, c := range out.Columns {
		outCols[i] = catalog.Column{Name: c, Type: catalog.TypeNull, Length: 1}
	}
	outSchema := &catalog.Schema{Name: "", Columns: outCols}
	oev := &env{bindings: []binding{{name: "", schema: outSchema}}, params: ev.params}

	// Decide statically, per key, which environment evaluates it.
	type keyPlan struct {
		expr      sql.Expr
		useSource bool
	}
	plans := make([]keyPlan, len(stmt.OrderBy))
	for oi, ob := range stmt.OrderBy {
		expr := sql.TransformExpr(sql.CloneExpr(ob.Expr), func(e sql.Expr) sql.Expr {
			if cr, ok := e.(*sql.ColumnRef); ok && cr.Table != "" && outSchema.ColIndex(cr.Name) >= 0 {
				return &sql.ColumnRef{Name: cr.Name}
			}
			return e
		})
		resolvable := true
		sql.WalkExpr(expr, func(e sql.Expr) bool {
			if cr, ok := e.(*sql.ColumnRef); ok {
				if cr.Table != "" || outSchema.ColIndex(cr.Name) < 0 {
					resolvable = false
					return false
				}
			}
			return true
		})
		if resolvable {
			plans[oi] = keyPlan{expr: expr}
			continue
		}
		if len(rows) != len(out.Tuples) {
			return fmt.Errorf("exec: ORDER BY key %s must reference output columns in an aggregated or DISTINCT query",
				sql.PrintExpr(ob.Expr))
		}
		plans[oi] = keyPlan{expr: ob.Expr, useSource: true}
	}

	ks := make([]keyed, len(out.Tuples))
	for ti, t := range out.Tuples {
		ks[ti].tuple = t
		ks[ti].keys = make(catalog.Tuple, len(stmt.OrderBy))
		for oi, plan := range plans {
			var v catalog.Value
			var err error
			if plan.useSource {
				v, err = ev.eval(plan.expr, rows[ti])
			} else {
				v, err = oev.eval(plan.expr, t)
			}
			if err != nil {
				return fmt.Errorf("exec: ORDER BY: %w", err)
			}
			ks[ti].keys[oi] = v
		}
	}
	var sortErr error
	sort.SliceStable(ks, func(i, j int) bool {
		for oi, ob := range stmt.OrderBy {
			c, err := compare(ks[i].keys[oi], ks[j].keys[oi])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for i := range ks {
		out.Tuples[i] = ks[i].tuple
	}
	return nil
}
