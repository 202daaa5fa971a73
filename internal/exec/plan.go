package exec

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// maxChunkRows caps how many result rows share one backing allocation: a
// vectorized plan cuts its rows out of chunks that double up to this many
// rows, instead of allocating each row.
const maxChunkRows = 256

// ErrPlanStale is returned by Plan.Execute when the table the plan was
// compiled against has been replaced (its schema pointer changed). Callers
// recompile against the current catalog. The 2VNL plan cache never observes
// this — it invalidates by table-registry pointer before executing — so it
// guards direct Plan users.
var ErrPlanStale = errors.New("exec: plan compiled against a replaced table")

// CompileOptions tunes CompileSelect. The Fast/Classify pair implements the
// per-tuple version-reconstruction decision: the 2VNL layer passes the
// statement it would run for a tuple readable in its current version
// (Table 1 / §5 case 1 — no CASE reconstruction), plus a per-tuple
// classifier. A tuple that classifies fast runs the fast filter and
// projections — for an aggregate, the fast filter, group key and aggregate
// inputs; any other runs the full rewritten form. Executions that do not
// bind ClassifyParam run the full form throughout.
type CompileOptions struct {
	// Fast is the case-1 variant of the statement: same output columns,
	// valid for a tuple t whenever Classify(t, v) is true, where v is the
	// execution's binding of ClassifyParam.
	Fast *sql.SelectStmt
	// Classify reports whether a tuple may be read through Fast. It runs
	// under the page latch (see Table.ScanFilter), once per tuple scanned:
	// it must be cheap, must not allocate and must not retain row.
	Classify func(row catalog.Tuple, v catalog.Value) bool
	// ClassifyParam names the parameter whose bound value feeds Classify
	// (the 2VNL layer passes ":sessionVN"). The lookup is hoisted to one
	// map access per execution.
	ClassifyParam string
}

// Plan is a SELECT compiled for repeated execution: its expressions are
// compiled closures (column offsets and parameter slots resolved once), and
// execution evaluates them against the stored tuples in place, page by page
// (see Execute). A scan projects the tuples that pass the WHERE; an aggregate
// folds them into a hash table of groups and projects the groups (agg.go).
// Statements outside that subset — joins, ORDER BY, DISTINCT, no FROM, an
// aggregate whose select list reads a column that is not grouped — compile to
// a fallback plan that executes through the tree-walking executor, still
// skipping parse and rewrite when cached.
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
	filter  compiledExpr // nil when the statement has no WHERE
	project []compiledExpr
	agg     *aggPlan // non-nil: the statement aggregates; filter and project are unused
	columns []string
	limit   *int64

	// Equality conjuncts usable by an index access path, extracted at
	// compile time; values resolve per execution (literal or parameter).
	eqCols []string
	eqVals []compiledExpr

	// Per-tuple fast path (see CompileOptions).
	fastFilter    compiledExpr
	fastProject   []compiledExpr
	classify      func(row catalog.Tuple, v catalog.Value) bool
	classifyParam string
}

// Vectorized reports whether the plan runs compiled closures — the scan
// pipeline or the hash aggregate (false means Execute falls back to the
// tree-walking executor).
func (p *Plan) Vectorized() bool { return p.vectorized }

// Statement returns the statement the plan was compiled from.
func (p *Plan) Statement() *sql.SelectStmt { return p.stmt }

// CompileSelect compiles stmt against cat. A single-table statement without
// ORDER BY or DISTINCT gets compiled closures: the scan pipeline when it
// projects rows, the hash aggregate (agg.go) when it has aggregates, GROUP BY
// or HAVING, either with LIMIT. Everything else, and any statement with an
// expression that does not compile, returns a fallback plan whose Execute runs
// the tree-walking executor. The returned plan retains stmt; callers must not
// mutate it afterwards.
func CompileSelect(cat Catalog, stmt *sql.SelectStmt, opts *CompileOptions) (*Plan, error) {
	if len(stmt.From) != 1 || stmt.Distinct || len(stmt.OrderBy) > 0 {
		return &Plan{stmt: stmt}, nil
	}
	tr := stmt.From[0]
	tbl, err := cat.Table(tr.Table)
	if err != nil {
		return nil, err
	}
	sc := tbl.Schema()
	comp := newCompiler([]binding{{name: tr.Binding(), schema: sc, offset: 0}})

	p := &Plan{stmt: stmt}
	items := expandStars(stmt, &env{bindings: comp.bindings})
	var ok bool
	if len(stmt.GroupBy) > 0 || stmt.Having != nil || anyAggregate(items) {
		ok = p.compileAgg(comp, stmt, items, opts)
	} else {
		ok = p.compileScan(comp, stmt, items, opts)
	}
	if !ok {
		// Unresolvable or uncompilable expression: the fallback path
		// reports the same error at execution time.
		return &Plan{stmt: stmt}, nil
	}
	p.vectorized = true
	p.table = tr.Table
	p.binding = tr.Binding()
	p.schema = sc
	p.comp = comp
	p.limit = stmt.Limit
	p.compileEqConjuncts(comp, stmt.Where)
	return p, nil
}

// compileScan compiles a scan/filter/project statement into p, with its fast
// variant when opts has one; false means the statement falls back.
func (p *Plan) compileScan(comp *compiler, stmt *sql.SelectStmt, items []sql.SelectItem, opts *CompileOptions) bool {
	filter, project, columns, ok := compileFilterProject(comp, stmt.Where, items)
	if !ok {
		return false
	}
	p.filter = filter
	p.project = project
	p.columns = columns
	if opts != nil && opts.Fast != nil && opts.Classify != nil {
		// The fast variant compiles with the same compiler, so both
		// variants share one parameter-slot table and one execution
		// context.
		fastItems := expandStars(opts.Fast, &env{bindings: comp.bindings})
		if ff, fp, _, ok := compileFilterProject(comp, opts.Fast.Where, fastItems); ok && len(fp) == len(project) {
			p.fastFilter = ff
			p.fastProject = fp
			p.classify = opts.Classify
			p.classifyParam = opts.ClassifyParam
		}
	}
	return true
}

// compileFilterProject compiles the WHERE and the select list. ok=false
// means some expression does not compile (unknown column, unsupported
// form); the caller then uses the fallback path, which reports the same
// error when the statement actually runs.
func compileFilterProject(comp *compiler, where sql.Expr, items []sql.SelectItem) (filter compiledExpr, project []compiledExpr, columns []string, ok bool) {
	if where != nil {
		f, err := comp.compile(where)
		if err != nil {
			return nil, nil, nil, false
		}
		filter = f
	}
	project = make([]compiledExpr, len(items))
	columns = make([]string, len(items))
	for i, it := range items {
		fn, err := comp.compile(it.Expr)
		if err != nil {
			return nil, nil, nil, false
		}
		project[i] = fn
		columns[i] = itemName(it, i)
	}
	return filter, project, columns, true
}

// compileEqConjuncts records the WHERE's top-level AND-ed `col = const`
// conjuncts with their value expressions compiled, so the index access
// path works on cached plans with per-execution parameter values.
func (p *Plan) compileEqConjuncts(comp *compiler, where sql.Expr) {
	var collect func(e sql.Expr)
	collect = func(e sql.Expr) {
		be, ok := e.(*sql.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case sql.OpAnd:
			collect(be.L)
			collect(be.R)
		case sql.OpEq:
			if col, val, ok := p.eqSideCompiled(comp, be.L, be.R); ok {
				p.eqCols = append(p.eqCols, col)
				p.eqVals = append(p.eqVals, val)
			} else if col, val, ok := p.eqSideCompiled(comp, be.R, be.L); ok {
				p.eqCols = append(p.eqCols, col)
				p.eqVals = append(p.eqVals, val)
			}
		default:
			// Every other operator (arithmetic, comparisons, OR) is not an
			// AND-ed equality conjunct; the index access path ignores it and
			// the compiled filter re-applies the full WHERE.
			return
		}
	}
	collect(where)
}

// eqSideCompiled matches `col = literal/param` with col a bare reference to
// the plan's binding, compiling the value side.
func (p *Plan) eqSideCompiled(comp *compiler, l, r sql.Expr) (string, compiledExpr, bool) {
	cr, ok := l.(*sql.ColumnRef)
	if !ok {
		return "", nil, false
	}
	if cr.Table != "" && !equalFold(cr.Table, p.binding) {
		return "", nil, false
	}
	switch r.(type) {
	case *sql.Literal, *sql.Param:
		fn, err := comp.compile(r)
		if err != nil {
			return "", nil, false
		}
		return cr.Name, fn, true
	}
	return "", nil, false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Execute runs the plan. A vectorized plan without a usable index hands its
// filter to the table's page walker, which evaluates it against each stored
// tuple under the page latch and copies out only the survivors; Execute
// projects those. An aggregate plan hands the walker its fold instead, which
// keeps no tuple at all (see executeAgg). With an index either fetches the
// matching RIDs one by one. Fallback plans run the tree-walking executor on
// the stored statement.
func (p *Plan) Execute(cat Catalog, params Params) (*Rows, error) {
	if !p.vectorized {
		return Select(cat, p.stmt, params)
	}
	tbl, err := cat.Table(p.table)
	if err != nil {
		return nil, err
	}
	if tbl.Schema() != p.schema {
		return nil, fmt.Errorf("%w: %s", ErrPlanStale, p.table)
	}
	if p.agg != nil {
		return p.executeAgg(tbl, params)
	}
	out := &Rows{Columns: p.columns}
	if p.limit != nil && *p.limit <= 0 {
		return out, nil
	}
	r := planRun{p: p, ctx: p.comp.newCtx(params), out: out}
	// Hoist the classifier's parameter lookup to one map access per
	// execution; per tuple the only residual version logic is the
	// classifier's integer comparison.
	if p.classify != nil {
		r.clsVal, r.split = params[p.classifyParam]
	}
	if rids, ok := p.lookupRIDs(r.ctx, tbl); ok {
		return r.fetch(tbl, rids)
	}
	return r.scan(tbl)
}

// planRun is the state of one Execute.
type planRun struct {
	p      *Plan
	ctx    *evalCtx
	clsVal catalog.Value
	split  bool // clsVal is bound: choose the variant per tuple
	out    *Rows
	free   []catalog.Value // unused rest of the current row chunk
}

// variant picks the filter and projections for t: the fast pair when the
// plan has one and t classifies fast (Table 1 / §5 case 1), else the full
// rewritten pair.
func (r *planRun) variant(t catalog.Tuple) (compiledExpr, []compiledExpr) {
	if r.split && r.p.classify(t, r.clsVal) {
		return r.p.fastFilter, r.p.fastProject
	}
	return r.p.filter, r.p.project
}

// keep reports whether t passes the WHERE. It is the predicate handed to
// Table.ScanFilter, so it runs under the page latch: compiled closures
// neither retain t nor allocate unless they fail.
func (r *planRun) keep(t catalog.Tuple) (bool, error) {
	filter, _ := r.variant(t)
	if filter == nil {
		return true, nil
	}
	v, err := filter(r.ctx, t)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

// emit projects t, which keep accepted, into the next result row; done
// reports that the LIMIT is reached.
func (r *planRun) emit(t catalog.Tuple) (done bool, err error) {
	_, project := r.variant(t)
	w := len(project)
	if len(r.free) < w {
		// Chunks double with the result, from one row up to maxChunkRows.
		rows := min(max(len(r.out.Tuples), 1), maxChunkRows)
		r.free = make([]catalog.Value, rows*w)
	}
	// Capped to its own width, so appending to a row cannot reach the next.
	row := catalog.Tuple(r.free[:w:w])
	r.free = r.free[w:]
	for i, fn := range project {
		if row[i], err = fn(r.ctx, t); err != nil {
			return false, err
		}
	}
	r.out.Tuples = append(r.out.Tuples, row)
	return r.p.limit != nil && int64(len(r.out.Tuples)) >= *r.p.limit, nil
}

// fetch is the index access path: read each RID, re-apply the full WHERE.
func (r *planRun) fetch(tbl Table, rids []storage.RID) (*Rows, error) {
	for _, rid := range rids {
		t, err := tbl.Get(rid)
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue // slot concurrently freed; legal skip
			}
			return nil, fmt.Errorf("exec: indexed read of %v: %w", rid, err)
		}
		ok, err := r.keep(t)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if done, err := r.emit(t); err != nil {
			return nil, err
		} else if done {
			break
		}
	}
	return r.out, nil
}

// scan is the heap access path. It takes r by value so that only a scan, not
// an indexed read, pays for moving it to the heap with the closures.
func (r planRun) scan(tbl Table) (*Rows, error) {
	var emitErr error
	err := tbl.ScanFilter(r.keep, func(_ []storage.RID, survivors []catalog.Tuple) bool {
		for _, t := range survivors {
			done, err := r.emit(t)
			if err != nil {
				emitErr = err
				return false
			}
			if done {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = emitErr
	}
	if err != nil {
		return nil, err
	}
	return r.out, nil
}

// lookupRIDs attempts the index access path with the compiled conjuncts,
// dropping conjuncts whose parameter is unbound this execution (the same
// per-conjunct rule the tree-walking extractor applies).
func (p *Plan) lookupRIDs(ctx *evalCtx, tbl Table) ([]storage.RID, bool) {
	if len(p.eqCols) == 0 {
		return nil, false
	}
	it, ok := tbl.(IndexedTable)
	if !ok {
		return nil, false
	}
	cols := make([]string, 0, len(p.eqCols))
	vals := make([]catalog.Value, 0, len(p.eqCols))
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
