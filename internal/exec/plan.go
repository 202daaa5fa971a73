package exec

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// maxChunkRows caps how many result rows share one of Rows' chunks.
const maxChunkRows = 256

// ErrPlanStale is returned by Plan.Execute when the table the plan was
// compiled against has been replaced (its schema pointer changed). Callers
// recompile against the current catalog. The 2VNL plan cache never observes
// this — it invalidates by table-registry pointer before executing — so it
// guards direct Plan users.
var ErrPlanStale = errors.New("exec: plan compiled against a replaced table")

// CompileOptions describes a versioned relation — one whose stored tuples
// keep several versions of some columns side by side (2VNL's Table 1, nVNL's
// §5) — so that a statement written against the relation's base columns
// reads each stored tuple at the reader's version. Per stored tuple, Select
// picks the version slot the reader sees, or finds the tuple invisible,
// before any expression runs; every column reference then reads the stored
// tuple at that slot's offset. A catalog declares a relation's options by
// returning a Versioned table; both executors read it that way.
type CompileOptions struct {
	// Slots[k][i] is the offset in the stored tuple of base column i as
	// version slot k holds it. Slot 0 holds the current values, and its
	// stored columns name the base columns; a column whose offset is the
	// same in every slot is never versioned.
	Slots [][]int
	// Select returns the slot a reader at version vn reads row in, and
	// whether row exists in that version at all. It runs under the page
	// latch (see Table.ScanFilter), once per tuple scanned on a page that
	// is not clean at vn: it must be cheap, must not allocate and must not
	// retain row.
	Select func(row catalog.Tuple, vn int64) (slot int, visible bool)
}

// Versioned is a Table whose stored tuples keep several versions
// (CompileOptions). Statements name its base columns, and a reader needs a
// version to read it (Plan.ExecuteInto).
type Versioned interface {
	Table
	Versions() *CompileOptions
}

// errNoVersion fails a read of a versioned relation given no version.
var errNoVersion = errors.New("exec: a versioned relation is read at a version (Plan.ExecuteInto)")

// base returns the relation as statements name it: the stored columns that
// hold the current values.
func (o *CompileOptions) base(stored *catalog.Schema) *catalog.Schema {
	cols := make([]catalog.Column, len(o.Slots[0]))
	for i, off := range o.Slots[0] {
		cols[i] = stored.Columns[off]
	}
	return &catalog.Schema{Name: stored.Name, Columns: cols}
}

// versioned reports whether base column i is read at a slot-dependent
// offset.
func (o *CompileOptions) versioned(i int) bool {
	for _, off := range o.Slots[1:] {
		if off[i] != o.Slots[0][i] {
			return true
		}
	}
	return false
}

// indexable reports whether an index may serve an equality on column name
// of base schema sc. A versioned column never qualifies (§4.3): an index
// holds current values, so a reader at an older version would miss every
// tuple whose value it sees differs from the current one.
func (o *CompileOptions) indexable(sc *catalog.Schema, name string) bool {
	if o == nil {
		return true
	}
	i := sc.ColIndex(name)
	return i >= 0 && !o.versioned(i)
}

// read writes stored tuple t into base as a reader at vn sees it, its base
// columns at the slot Select picks, and reports whether t exists at vn.
func (o *CompileOptions) read(base, t catalog.Tuple, vn int64) bool {
	k, visible := o.Select(t, vn)
	for i, off := range o.Slots[k] {
		base[i] = t[off]
	}
	return visible
}

// Plan is a SELECT compiled for repeated execution: its expressions are
// compiled closures (column offsets and parameter slots resolved once), and
// execution evaluates them against the stored tuples in place, page by page
// (see Execute). A scan projects the tuples that pass the WHERE; an aggregate
// folds them into a hash table of groups and projects the groups (agg.go).
// Over a versioned relation (CompileOptions) each stored tuple is first read
// at the reader's version. Statements outside that subset — joins, ORDER BY,
// DISTINCT, no FROM, an aggregate whose select list reads a column that is
// not grouped — compile to a fallback plan that executes through the
// tree-walking executor, which reads a versioned relation the same way.
//
// A Plan is immutable after CompileSelect returns and safe for concurrent
// use by any number of goroutines; each Execute builds its own evaluation
// context.
type Plan struct {
	stmt *sql.SelectStmt // full statement; fallback path and error messages

	vectorized bool
	table      string
	binding    string
	schema     *catalog.Schema // compile-time schema identity, checked at Execute

	comp    *compiler
	filter  compiledPred // nil when the statement has no WHERE
	kernel  kernel       // the WHERE's typed form on clean pages, or nil
	project []compiledExpr
	agg     *aggPlan // non-nil: the statement aggregates; project is unused
	columns []string
	limit   *int64

	// Equality conjuncts usable by an index access path, extracted at
	// compile time; values resolve per execution (literal or parameter).
	eqCols []string
	eqVals []compiledExpr
}

// Vectorized reports whether the plan runs compiled closures — the scan
// pipeline or the hash aggregate (false means Execute falls back to the
// tree-walking executor).
func (p *Plan) Vectorized() bool { return p.vectorized }

// Kernel reports whether the plan's WHERE decides a clean page's tuples with
// the typed kernel (kernel.go) rather than its closure alone.
func (p *Plan) Kernel() bool { return p.kernel != nil }

// Statement returns the statement the plan was compiled from.
func (p *Plan) Statement() *sql.SelectStmt { return p.stmt }

// CompileSelect compiles stmt against cat. A single-table statement without
// ORDER BY or DISTINCT gets compiled closures: the scan pipeline when it
// projects rows, the hash aggregate (agg.go) when it has aggregates, GROUP BY
// or HAVING, either with LIMIT. With opts — or, when opts is nil, the
// options of a Versioned table — stmt names the base columns of the
// versioned relation they describe, and every execution reads that relation
// at the version ExecuteInto is given. Everything else, and any statement with
// an expression that does not compile, returns a fallback plan whose
// execution runs the tree-walking executor. The returned plan retains stmt;
// callers must not mutate it afterwards.
func CompileSelect(cat Catalog, stmt *sql.SelectStmt, opts *CompileOptions) (*Plan, error) {
	if len(stmt.From) != 1 || stmt.Distinct || len(stmt.OrderBy) > 0 {
		return &Plan{stmt: stmt}, nil
	}
	tr := stmt.From[0]
	tbl, err := cat.Table(tr.Table)
	if err != nil {
		return nil, err
	}
	if v, ok := tbl.(Versioned); ok && opts == nil {
		opts = v.Versions()
	}
	sc := tbl.Schema()
	b := binding{name: tr.Binding(), schema: sc}
	if opts != nil {
		b.schema = opts.base(sc)
	}
	comp := newCompiler([]binding{b}, opts)

	p := &Plan{stmt: stmt, table: tr.Table, binding: tr.Binding(), schema: sc, comp: comp, limit: stmt.Limit}
	items := expandStars(stmt, &env{bindings: comp.bindings})
	if len(stmt.GroupBy) > 0 || stmt.Having != nil || anyAggregate(items) {
		err = p.compileAgg(comp, stmt, items)
	} else {
		err = p.compileScan(comp, stmt.Where, items)
	}
	if err != nil {
		// Unresolvable or uncompilable expression: the fallback path
		// reports the same error at execution time.
		return &Plan{stmt: stmt}, nil
	}
	p.vectorized = true
	p.compileEqConjuncts(comp, stmt.Where)
	return p, nil
}

// compileScan compiles the WHERE and the select list of a scan/filter/project
// statement into p. An error means some expression does not compile (unknown
// column, unsupported form); the statement then falls back.
func (p *Plan) compileScan(comp *compiler, where sql.Expr, items []sql.SelectItem) error {
	if err := p.compileWhere(comp, where); err != nil {
		return err
	}
	for i, it := range items {
		fn, err := comp.compile(it.Expr)
		if err != nil {
			return err
		}
		p.project = append(p.project, fn)
		p.columns = append(p.columns, itemName(it, i))
	}
	return nil
}

// compileWhere compiles the WHERE, if any, into p's filter and, when it has
// that shape, its kernel.
func (p *Plan) compileWhere(comp *compiler, where sql.Expr) (err error) {
	if where == nil {
		return nil
	}
	if p.filter, err = comp.compilePred(where); err != nil {
		return err
	}
	p.kernel = comp.compileKernel(where)
	return nil
}

// compileEqConjuncts records the WHERE's equality conjuncts (eqConjuncts)
// that an index may serve (CompileOptions.indexable) with their value
// expressions compiled, so the index access path works on cached plans with
// per-execution parameter values.
func (p *Plan) compileEqConjuncts(comp *compiler, where sql.Expr) {
	eqConjuncts(where, p.binding, func(col *sql.ColumnRef, val sql.Expr) {
		if !comp.ver.indexable(comp.bindings[0].schema, col.Name) {
			return
		}
		if fn, err := comp.compile(val); err == nil {
			p.eqCols = append(p.eqCols, col.Name)
			p.eqVals = append(p.eqVals, fn)
		}
	})
}

// Execute is ExecuteInto, materialized, with no reader version: a plan that
// reads a versioned relation fails.
func (p *Plan) Execute(cat Catalog, params Params) (*Rows, error) {
	return Collect(func(sink Sink) error { return p.execute(cat, &env{params: params}, sink) })
}

// ExecuteInto runs the plan for a reader at version vn (ignored over plain
// relations) into sink. Without a usable index a vectorized plan hands the
// page walker a filter that keeps no tuple: under each page's latch it reads
// each stored tuple at vn, runs the WHERE, and hands a survivor's projection
// to sink.Add (see scan); an aggregate hands it its fold (see executeAgg).
// With an index either fetches the matching RIDs one by one. Fallback plans
// Feed sink the tree-walker's result. ErrPlanStale leaves sink untouched.
func (p *Plan) ExecuteInto(cat Catalog, params Params, vn int64, sink Sink) error {
	return p.execute(cat, &env{params: params, vn: vn, at: true}, sink)
}

// execute runs the plan for the reader ev describes into sink.
func (p *Plan) execute(cat Catalog, ev *env, sink Sink) error {
	if !p.vectorized {
		rows, err := selectStmt(cat, p.stmt, ev)
		return Feed(sink, rows, err)
	}
	if p.comp.ver != nil && !ev.at {
		return errNoVersion
	}
	tbl, err := cat.Table(p.table)
	if err != nil {
		return err
	}
	if tbl.Schema() != p.schema {
		return fmt.Errorf("%w: %s", ErrPlanStale, p.table)
	}
	sink.Begin(p.columns)
	if p.limit != nil && *p.limit <= 0 {
		return nil
	}
	ctx := p.comp.newCtx(ev.params, ev.vn)
	if p.agg != nil {
		return p.executeAgg(tbl, ctx, sink)
	}
	r := planRun{p: p, ctx: ctx, sink: sink, row: ctx.scratch(len(p.project))}
	if rids, ok := p.lookupRIDs(ctx, tbl); ok {
		return r.fetch(tbl, rids)
	}
	return r.scan(tbl)
}

// planRun is the state of one Execute.
type planRun struct {
	p    *Plan
	ctx  *evalCtx
	kern bounds // the kernel bound for the scan
	sink Sink
	row  catalog.Tuple // the scratch row each result row is projected into
	n    int64         // rows delivered, which the LIMIT counts
}

// errLimit ends a scan whose LIMIT is reached; scan maps it to success.
var errLimit = errors.New("exec: limit reached")

// keepNothing is the block callback of a scan whose filter keeps no tuple.
func keepNothing([]storage.RID, []catalog.Tuple) bool { return true }

// take projects t and delivers the row when t exists at the reader's
// version and passes the WHERE, and keeps nothing. It is the predicate
// handed to Table.ScanFilter, so it runs under the page latch: compiled
// closures neither retain t (values copied out of it are immutable) nor
// call back into the table, the sink obeys Sink's rules, and take allocates
// only an error. At the LIMIT it returns errLimit.
func (r *planRun) take(t catalog.Tuple) (bool, error) {
	if !r.ctx.at(t) {
		return false, nil
	}
	return false, r.pass(t)
}

// pass projects t, read in the slot the context points at, into the next
// result row when it passes the WHERE.
func (r *planRun) pass(t catalog.Tuple) error {
	if r.p.filter != nil {
		if ok, err := r.p.filter(r.ctx, t); !ok || err != nil {
			return err
		}
	}
	return r.emit(t)
}

// takePage is take for a whole page (Table.ScanFilter's page contract): each
// survivor is projected in place, and none is kept. On a page clean at the
// reader's version every tuple exists in its current values, so the WHERE
// selects the slots (selectClean, which points the context at slot 0 once);
// the slots selected lie before any slot whose WHERE failed, so the first
// error in slot order is the one returned, unless the LIMIT comes first. On
// any other page a current slot runs the WHERE and the projection at slot 0
// without the slot selector, and every other slot runs take.
func (r *planRun) takePage(v storage.PageView, sel []int32) ([]int32, error) {
	if v.Clean() {
		sel, err := r.p.selectClean(r.ctx, &r.kern, v, sel)
		for _, si := range sel {
			if perr := r.emit(v.Tuple(int(si))); perr != nil {
				return sel[:0], perr
			}
		}
		return sel[:0], err
	}
	for si := 0; si < v.Slots(); si++ {
		if !v.Live(si) {
			continue
		}
		t := v.Tuple(si)
		if v.Current(si) {
			r.ctx.current()
		} else if !r.ctx.at(t) {
			continue
		}
		if err := r.pass(t); err != nil {
			return sel, err
		}
	}
	return sel, nil
}

// emit projects t, read in the slot the context points at, into the scratch
// row and delivers it; it returns errLimit when the LIMIT is reached.
func (r *planRun) emit(t catalog.Tuple) (err error) {
	for i, fn := range r.p.project {
		if r.row[i], err = fn(r.ctx, t); err != nil {
			return err
		}
	}
	r.sink.Add(r.row)
	r.n++
	if r.p.limit != nil && r.n >= *r.p.limit {
		return errLimit
	}
	return nil
}

// fetch is the index access path: read each RID, re-apply the full WHERE.
func (r *planRun) fetch(tbl Table, rids []storage.RID) error {
	for _, rid := range rids {
		t, err := tbl.Get(rid)
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue // slot concurrently freed; legal skip
			}
			return fmt.Errorf("exec: indexed read of %v: %w", rid, err)
		}
		if _, err := r.take(t); errors.Is(err, errLimit) {
			break
		} else if err != nil {
			return err
		}
	}
	return nil
}

// scan is the heap access path: the walker runs takePage on each page of a
// summarised heap, and take on each tuple of any other, under the page
// latch, so every survivor is projected and delivered in place and no
// stored tuple is copied out. The LIMIT ends the walk at the row that
// reaches it, mid-page too, with errLimit, which scan reads as success. It
// takes r by value so that only a scan, not an indexed read, pays for moving
// it to the heap with its method values.
func (r planRun) scan(tbl Table) error {
	r.kern = r.p.kernel.bind(r.ctx)
	err := tbl.ScanFilter(storage.Filter{Pred: r.take, Page: r.takePage, VN: r.ctx.vn}, keepNothing)
	if errors.Is(err, errLimit) {
		return nil
	}
	return err
}

// lookupRIDs attempts the index access path with the compiled conjuncts,
// dropping conjuncts whose parameter is unbound this execution (the same
// per-conjunct rule the tree-walking extractor applies). The lookup's column
// and value lists are cut from the context's scratch.
func (p *Plan) lookupRIDs(ctx *evalCtx, tbl Table) ([]storage.RID, bool) {
	if len(p.eqCols) == 0 {
		return nil, false
	}
	it, ok := tbl.(IndexedTable)
	if !ok {
		return nil, false
	}
	cols, vals := ctx.lookCols[:0], ctx.lookVals[:0]
	for i, col := range p.eqCols {
		v, err := p.eqVals[i](ctx, nil)
		if err != nil {
			continue // unbound parameter: this conjunct is unusable
		}
		cols = append(cols, col)
		vals = append(vals, v)
	}
	if len(cols) == 0 {
		return nil, false
	}
	return it.LookupEqual(cols, vals)
}
