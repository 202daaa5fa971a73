package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// planTable builds a memTable with deterministic pseudo-random contents,
// large enough that a scan crosses several of memTable's pages. Column c carries NULLs so three-valued logic is exercised.
func planTable(rows int, seed int64) *memTable {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Length: 8},
		{Name: "b", Type: catalog.TypeInt, Length: 8},
		{Name: "c", Type: catalog.TypeInt, Length: 8},
		{Name: "s", Type: catalog.TypeString, Length: 16},
	})
	rng := rand.New(rand.NewSource(seed))
	mt := &memTable{schema: schema}
	for i := 0; i < rows; i++ {
		c := catalog.Null
		if rng.Intn(4) != 0 {
			c = catalog.NewInt(rng.Int63n(50))
		}
		mt.rows = append(mt.rows, catalog.Tuple{
			catalog.NewInt(int64(i)),
			catalog.NewInt(rng.Int63n(100)),
			c,
			catalog.NewString(fmt.Sprintf("s%d", rng.Intn(10))),
		})
	}
	return mt
}

// executeAt is Plan.ExecuteInto at vn, materialized.
func executeAt(pl *Plan, cat Catalog, params Params, vn int64) (*Rows, error) {
	return Collect(func(sink Sink) error { return pl.ExecuteInto(cat, params, vn, sink) })
}

// runBoth executes one SELECT through the tree-walking executor and through
// CompileSelect/Execute and requires identical outcomes: both error, or both
// succeed with identical columns and tuples.
func runBoth(t *testing.T, cat Catalog, text string, params Params) {
	t.Helper()
	sel, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	want, werr := Select(cat, sel, params)
	pl, perr := CompileSelect(cat, sel, nil)
	if perr != nil {
		if werr == nil {
			t.Fatalf("%q: compile failed (%v) but legacy executor succeeded", text, perr)
		}
		return
	}
	got, gerr := pl.Execute(cat, params)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: legacy err=%v, plan err=%v", text, werr, gerr)
	}
	if werr != nil {
		return
	}
	if fmt.Sprint(want.Columns) != fmt.Sprint(got.Columns) {
		t.Fatalf("%q: columns %v vs %v", text, want.Columns, got.Columns)
	}
	if fmt.Sprint(want.Tuples) != fmt.Sprint(got.Tuples) {
		t.Fatalf("%q: %d legacy rows vs %d plan rows\nlegacy: %.200v\nplan:   %.200v",
			text, want.Len(), got.Len(), want.Tuples, got.Tuples)
	}
	// Executing the same plan again must not accumulate state.
	again, aerr := pl.Execute(cat, params)
	if aerr != nil || fmt.Sprint(again.Tuples) != fmt.Sprint(got.Tuples) {
		t.Fatalf("%q: second execution diverged (%v)", text, aerr)
	}
}

// The vectorized pipeline is pinned row-for-row against the tree-walking
// executor across filters, projections, parameters, NULL logic, and LIMIT
// (zero, inside a page, across pages), on a table of several pages.
func TestPlanDifferentialScan(t *testing.T) {
	mt := planTable(1000, 1)
	cat := memCatalog{"t": mt}
	queries := []string{
		`SELECT a, b FROM t`,
		`SELECT * FROM t`,
		`SELECT a FROM t WHERE b < 50`,
		`SELECT a, b + c FROM t WHERE c IS NOT NULL`,
		`SELECT a FROM t WHERE c IS NULL`,
		`SELECT a, b FROM t WHERE b >= 10 AND b < 90 AND a <> 500`,
		`SELECT a FROM t WHERE b < 20 OR c > 40`,
		`SELECT a, CASE WHEN b < 50 THEN 'lo' ELSE 'hi' END FROM t`,
		`SELECT a FROM t WHERE s IN ('s1', 's2', 's3')`,
		`SELECT a FROM t WHERE b BETWEEN 25 AND 75`,
		`SELECT a FROM t WHERE NOT (b < 50)`,
		`SELECT a, b * 2 - 1, UPPER(s) FROM t WHERE LENGTH(s) = 2`,
		`SELECT a FROM t WHERE b = :p`,
		`SELECT a FROM t WHERE b < :p AND c >= :q`,
		`SELECT a FROM t LIMIT 10`,
		`SELECT a FROM t LIMIT 0`,
		`SELECT a FROM t WHERE b < 50 LIMIT 300`,
		`SELECT a FROM t WHERE b < 0`,
		`SELECT a, COALESCE(c, -1) FROM t`,
		`SELECT t.a, t.b FROM t WHERE t.b < 30`,
		`SELECT a AS x, b AS y FROM t WHERE a < 5`,
	}
	params := Params{"p": catalog.NewInt(42), "q": catalog.NewInt(10)}
	for _, q := range queries {
		runBoth(t, cat, q, params)
	}
}

// Error behavior matches too: a division by zero reachable only on some rows
// fails both pipelines, and an unbound parameter in a taken branch fails both.
func TestPlanDifferentialErrors(t *testing.T) {
	mt := planTable(600, 2)
	cat := memCatalog{"t": mt}
	for _, q := range []string{
		`SELECT 1 / (b - 50) FROM t`,         // some row has b = 50
		`SELECT a FROM t WHERE b / 0 > 1`,    // every row errors
		`SELECT a FROM t WHERE b < :unbound`, // unbound param, taken
		`SELECT a + s FROM t`,                // type error at runtime
	} {
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		_, werr := Select(cat, sel, nil)
		pl, perr := CompileSelect(cat, sel, nil)
		if perr != nil {
			t.Fatalf("%q: compile error %v (should defer to execution)", q, perr)
		}
		got, gerr := pl.Execute(cat, nil)
		if werr == nil || gerr == nil {
			t.Fatalf("%q: expected both to fail, legacy=%v plan=%v", q, werr, gerr)
		}
		if got != nil {
			t.Fatalf("%q: failed plan leaked %d rows", q, got.Len())
		}
	}
	// An unbound parameter inside an untaken CASE arm must NOT fail — on
	// either pipeline (laziness parity).
	runBoth(t, cat, `SELECT CASE WHEN b >= 0 THEN a ELSE :unbound END FROM t`, nil)
}

// Statements outside the compiled subset compile to fallback plans that
// still answer exactly like the ad-hoc path; the aggregate shapes compile.
func TestPlanFallbackShapes(t *testing.T) {
	mt := planTable(300, 3)
	cat := memCatalog{"t": mt, "u": planTable(20, 4)}
	compiles := func(q string) bool {
		t.Helper()
		pl, err := CompileSelect(cat, mustSelect(t, q), nil)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return pl.Vectorized()
	}
	for _, q := range []string{
		`SELECT a FROM t ORDER BY b, a LIMIT 7`,
		`SELECT DISTINCT s FROM t`,
		`SELECT t.a, u.a FROM t, u WHERE t.a = u.a`,
		// b is not grouped: the tree-walker reads it from each group's
		// first row, which the fold does not keep.
		`SELECT b, COUNT(*) FROM t GROUP BY s`,
	} {
		if compiles(q) {
			t.Fatalf("%q: unexpectedly vectorized", q)
		}
		runBoth(t, cat, q, nil)
	}
	for _, q := range []string{
		`SELECT a FROM t WHERE b < 10`,
		`SELECT COUNT(*) FROM t`,
		`SELECT s, SUM(b) FROM t GROUP BY s`,
		`SELECT s FROM t GROUP BY s HAVING COUNT(*) > 5`,
	} {
		if !compiles(q) {
			t.Fatalf("%q: fell back", q)
		}
		runBoth(t, cat, q, nil)
	}
}

// A fallback plan's result is built once: Collect's empty Rows adopts the
// tree-walker's Rows, so Execute allocates what Select does plus a constant
// (the Rows, the env and Collect's closure), not a per-row copy.
func TestFallbackResultBuiltOnce(t *testing.T) {
	cat := memCatalog{"t": planTable(300, 3)}
	sel := mustSelect(t, `SELECT a, b FROM t ORDER BY b, a LIMIT 200`)
	pl, err := CompileSelect(cat, sel, nil)
	if err != nil || pl.Vectorized() {
		t.Fatalf("want a fallback plan, got %v", err)
	}
	walker := testing.AllocsPerRun(20, func() {
		if _, err := Select(cat, sel, nil); err != nil {
			t.Fatal(err)
		}
	})
	plan := testing.AllocsPerRun(20, func() {
		if _, err := pl.Execute(cat, nil); err != nil {
			t.Fatal(err)
		}
	})
	if plan > walker+3 {
		t.Fatalf("fallback Execute allocates %.0f times, the tree-walker %.0f: the result is copied", plan, walker)
	}
}

// The plan's index access path serves equality conjuncts with per-execution
// parameter values and answers exactly like the scan.
func TestPlanIndexAccessPath(t *testing.T) {
	base := planTable(500, 5)
	idx := &indexedMem{memTable: base, serve: true}
	cat := memCatalog2{"t": idx}
	sel, err := sql.ParseSelect(`SELECT a, b FROM t WHERE a = :k AND b >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := CompileSelect(cat, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, cat, `SELECT a FROM t WHERE a = :k LIMIT 0`, Params{"k": catalog.NewInt(7)})
	for _, k := range []int64{0, 7, 499, 1000} {
		params := Params{"k": catalog.NewInt(k)}
		got, err := pl.Execute(cat, params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Select(cat, sel, params)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
			t.Fatalf("k=%d: plan %v, legacy %v", k, got.Tuples, want.Tuples)
		}
	}
	if idx.lookups == 0 {
		t.Fatal("compiled plan never used the index access path")
	}
	// Unbound parameter: the conjunct is unusable, the plan scans, and the
	// unbound error still surfaces from the residual filter.
	if _, err := pl.Execute(cat, nil); err == nil {
		t.Fatal("unbound parameter in WHERE should fail")
	}
}

// versionedTable stores 2VNL-shaped tuples (tvn, op, k, g, v, pre_v) on
// several pages, mixing tuples read at the current slot, tuples read at the
// pre-update slot and tuples invisible at the reader's version. The slot a
// tuple is invisible in holds v = 0, so any expression that reaches it
// divides by zero. It returns the table and its version description.
func versionedTable(rows int, seed int64) (*memTable, *CompileOptions) {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "tvn", Type: catalog.TypeInt, Length: 8},
		{Name: "op", Type: catalog.TypeString, Length: 8},
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "g", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8},
		{Name: "pre_v", Type: catalog.TypeInt, Length: 8},
	})
	rng := rand.New(rand.NewSource(seed))
	mt := &memTable{schema: schema}
	for i := 0; i < rows; i++ {
		tvn, op := int64(1), "insert"
		cur, pre := 1+rng.Int63n(50), int64(0)
		if i > rows/3 {
			// Later pages: tuples changed at version 2 or 3.
			tvn = 2 + rng.Int63n(2)
			switch rng.Intn(3) {
			case 0: // its pre-update version does not exist
				op = "insert"
			case 1:
				op, pre = "update", 1+rng.Int63n(50)
			default: // its current version does not exist
				op, cur, pre = "delete", 0, cur
			}
		}
		mt.rows = append(mt.rows, catalog.Tuple{
			catalog.NewInt(tvn), catalog.NewString(op), catalog.NewInt(int64(i)),
			catalog.NewInt(int64(i % 7)), catalog.NewInt(cur), catalog.NewInt(pre),
		})
	}
	return mt, &CompileOptions{
		Slots: [][]int{{2, 3, 4}, {2, 3, 5}},
		Select: func(row catalog.Tuple, vn int64) (int, bool) {
			if vn >= row[0].Int() {
				return 0, row[1].Str() != "delete"
			}
			return 1, row[1].Str() != "insert"
		},
	}
}

// asOf materializes the versioned table at version vn: the base tuple
// (k, g, v) of every tuple visible there, read at the slot Select picks.
func asOf(mt *memTable, opts *CompileOptions, vn int64) *memTable {
	out := &memTable{schema: opts.base(mt.schema)}
	for _, row := range mt.rows {
		if k, ok := opts.Select(row, vn); ok {
			base := make(catalog.Tuple, len(opts.Slots[k]))
			for i, off := range opts.Slots[k] {
				base[i] = row[off]
			}
			out.rows = append(out.rows, base)
		}
	}
	return out
}

// A versioned plan reads each stored tuple at the slot its selector picks and
// skips an invisible tuple before any expression runs, through the scan and
// the aggregate pipelines, on pages that mix current, pre-update and invisible
// tuples. The oracle is the tree-walker over the table materialized at the
// reader's version. The index serves a non-versioned column and never a
// versioned one (§4.3).
func TestPlanVersionSlots(t *testing.T) {
	mt, opts := versionedTable(900, 6)
	idx := &indexedMem{memTable: mt, serve: true}
	queries := []string{
		`SELECT * FROM t`,
		`SELECT k, v FROM t WHERE v < 25`,
		`SELECT k, 10 / v FROM t WHERE 10 / v > 0`,
		`SELECT k FROM t WHERE v BETWEEN 10 AND 20 LIMIT 7`,
		`SELECT t.k, t.v + t.g FROM t WHERE t.g = 3`,
		`SELECT COUNT(*), SUM(v), MIN(v), MAX(v), SUM(10 / v) FROM t`,
		`SELECT g, COUNT(*), AVG(v) FROM t GROUP BY g`,
		`SELECT v / 10, COUNT(*) FROM t WHERE k < 800 GROUP BY v / 10 HAVING SUM(v) > 100`,
		`SELECT k FROM t WHERE k = :p`,
		`SELECT k, g FROM t WHERE v = :p`,
		`SELECT COUNT(*) FROM t WHERE v = :p`,
		`SELECT k, :vn FROM t WHERE k < 5`,
	}
	for _, vn := range []int64{1, 2, 3} {
		want := memCatalog{"t": asOf(mt, opts, vn)}
		params := Params{"vn": catalog.NewInt(vn), "p": catalog.NewInt(17)}
		for _, q := range queries {
			sel := mustSelect(t, q)
			pl, err := CompileSelect(memCatalog2{"t": idx}, sel, opts)
			if err != nil || !pl.Vectorized() {
				t.Fatalf("%q: not compiled (%v)", q, err)
			}
			before := idx.lookups
			got, err := executeAt(pl, memCatalog2{"t": idx}, params, vn)
			if err != nil {
				t.Fatalf("vn=%d %q: %v", vn, q, err)
			}
			w, err := Select(want, sel, params)
			if err != nil {
				t.Fatalf("vn=%d %q: oracle: %v", vn, q, err)
			}
			if fmt.Sprint(got.Columns, got.Tuples) != fmt.Sprint(w.Columns, w.Tuples) {
				t.Fatalf("vn=%d %q:\nplan:   %v %.300v\noracle: %v %.300v", vn, q, got.Columns, got.Tuples, w.Columns, w.Tuples)
			}
			indexed := idx.lookups > before
			if wantIndexed := strings.Contains(q, "k = :p") || strings.Contains(q, "g = 3"); indexed != wantIndexed {
				t.Fatalf("%q: index used = %v, want %v", q, indexed, wantIndexed)
			}
		}
	}
	// Every stored tuple needs the reader's version.
	pl, err := CompileSelect(memCatalog{"t": mt}, mustSelect(t, `SELECT k FROM t`), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Execute(memCatalog{"t": mt}, nil); !errors.Is(err, errNoVersion) {
		t.Fatalf("no version: err = %v, want errNoVersion", err)
	}
}

// versionedMem declares its CompileOptions through the catalog, as a store's
// versioned relations do.
type versionedMem struct {
	*indexedMem
	opts *CompileOptions
}

func (v versionedMem) Versions() *CompileOptions { return v.opts }

// A Versioned relation compiles from the catalog's options, and the shapes
// the compiled plans do not cover — ORDER BY, DISTINCT, a non-grouped
// column, a join with a versioned or a plain relation — read it through the
// same slot selector in the tree-walker: invisible tuples are skipped before
// any expression runs (10 / v over a deleted v = 0), an index never serves a
// versioned column (§4.3), and only base columns resolve. The oracle is the
// tree-walker over the table materialized at the reader's version.
func TestTreeWalkerReadsVersionSlots(t *testing.T) {
	mt, opts := versionedTable(300, 6)
	idx := &indexedMem{memTable: mt, serve: true}
	u := planTable(20, 4)
	cat := memCatalog2{"t": versionedMem{idx, opts}, "u": u}
	for _, c := range []struct {
		q        string
		compiled bool
	}{
		{`SELECT k, v FROM t WHERE 10 / v > 0`, true},
		{`SELECT k, v FROM t WHERE 10 / v > 0 ORDER BY v DESC, k LIMIT 9`, false},
		{`SELECT DISTINCT v / 10 FROM t`, false},
		{`SELECT k, COUNT(*) FROM t GROUP BY g`, false},
		{`SELECT k FROM t WHERE v = :p ORDER BY k`, false},
		{`SELECT k FROM t WHERE k = :p ORDER BY k`, false},
		{`SELECT a.k, b.v FROM t a, t b WHERE a.k = b.k AND a.v <> b.g ORDER BY a.k LIMIT 20`, false},
		{`SELECT t.k, u.a FROM t, u WHERE t.g = u.a ORDER BY t.k, u.a LIMIT 30`, false},
	} {
		pl, err := CompileSelect(cat, mustSelect(t, c.q), nil)
		if err != nil || pl.Vectorized() != c.compiled {
			t.Fatalf("%q: compiled %v (%v), want %v", c.q, pl.Vectorized(), err, c.compiled)
		}
		if _, err := pl.Execute(cat, nil); !errors.Is(err, errNoVersion) {
			t.Fatalf("%q: no version: err = %v, want errNoVersion", c.q, err)
		}
		for _, vn := range []int64{1, 2, 3} {
			params := Params{"p": catalog.NewInt(17)}
			before := idx.lookups
			got, err := executeAt(pl, cat, params, vn)
			if err != nil {
				t.Fatalf("vn=%d %q: %v", vn, c.q, err)
			}
			w, err := Select(memCatalog2{"t": asOf(mt, opts, vn), "u": u}, mustSelect(t, c.q), params)
			if err != nil {
				t.Fatalf("vn=%d %q: oracle: %v", vn, c.q, err)
			}
			if fmt.Sprint(got.Columns, got.Tuples) != fmt.Sprint(w.Columns, w.Tuples) {
				t.Fatalf("vn=%d %q:\nplan:   %v %.300v\noracle: %v %.300v", vn, c.q, got.Columns, got.Tuples, w.Columns, w.Tuples)
			}
			if indexed, want := idx.lookups > before, strings.Contains(c.q, "k = :p"); indexed != want {
				t.Fatalf("%q: index used = %v, want %v", c.q, indexed, want)
			}
		}
	}
	for _, q := range []string{`SELECT k, tvn FROM t`, `SELECT k, pre_v FROM t ORDER BY k`} {
		pl, err := CompileSelect(cat, mustSelect(t, q), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := executeAt(pl, cat, nil, 2); err == nil || !strings.Contains(err.Error(), "unknown column") {
			t.Fatalf("%q: err = %v, want an unknown column", q, err)
		}
	}
}

// The per-tuple slot choice is outcome-invisible: on some pages every tuple
// reads its current slot, on others neighbours read different slots, and the
// one compiled statement answers like its CASE-rewritten form over the stored
// table, which picks the slot per reference instead of per tuple.
func TestPlanFastPathSplit(t *testing.T) {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "vn", Type: catalog.TypeInt, Length: 8},
		{Name: "cur", Type: catalog.TypeInt, Length: 8},
		{Name: "pre", Type: catalog.TypeInt, Length: 8},
	})
	mt := &memTable{schema: schema}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 900; i++ {
		// Long runs of low vn with occasional high-vn tuples, so some pages
		// read one slot throughout and others mix the two.
		vn := int64(1)
		if i > 600 && rng.Intn(8) == 0 {
			vn = 100
		}
		mt.rows = append(mt.rows, catalog.Tuple{
			catalog.NewInt(vn), catalog.NewInt(rng.Int63n(50)), catalog.NewInt(rng.Int63n(50)),
		})
	}
	cat := memCatalog{"t": mt}
	const val = `CASE WHEN :cut >= vn THEN cur ELSE pre END`
	rewritten := mustSelect(t, `SELECT `+val+` FROM t WHERE `+val+` < 40`)
	pl, err := CompileSelect(cat, mustSelect(t, `SELECT cur FROM t WHERE cur < 40`), &CompileOptions{
		Slots: [][]int{{1}, {2}},
		Select: func(row catalog.Tuple, cut int64) (int, bool) {
			if cut >= row[0].Int() {
				return 0, true
			}
			return 1, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Vectorized() {
		t.Fatal("versioned scan not compiled")
	}
	for _, cut := range []int64{0, 1, 99, 100} {
		params := Params{"cut": catalog.NewInt(cut)}
		got, err := executeAt(pl, cat, nil, cut)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Select(cat, rewritten, params)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
			t.Fatalf("cut=%d: split pipeline diverged (%d vs %d rows)", cut, got.Len(), want.Len())
		}
	}
}

// A plan compiled against a replaced table reports ErrPlanStale instead of
// reading through the wrong schema.
func TestPlanStaleTable(t *testing.T) {
	mt := planTable(10, 7)
	cat := memCatalog{"t": mt}
	sel, _ := sql.ParseSelect(`SELECT a FROM t WHERE b < 50`)
	pl, err := CompileSelect(cat, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Execute(cat, nil); err != nil {
		t.Fatal(err)
	}
	cat["t"] = planTable(10, 8) // same columns, different schema identity
	if _, err := pl.Execute(cat, nil); !errors.Is(err, ErrPlanStale) {
		t.Fatalf("err = %v, want ErrPlanStale", err)
	}
}

// faultyMem injects errors from Get/Update/Delete to pin the executor's
// fault discipline: a not-found error is a legal cursor skip, anything else
// must fail the statement rather than shrink its effect.
type faultyMem struct {
	*indexedMem
	getErr   error
	getAfter int // inject on the getAfter-th Get (0-based); -1 = never
	gets     int
	delErr   error
	delAfter int
	dels     int
	updErr   error
	updAfter int
	upds     int
}

func (f *faultyMem) Get(rid storageRID) (catalog.Tuple, error) {
	n := f.gets
	f.gets++
	if f.getErr != nil && n == f.getAfter {
		return nil, f.getErr
	}
	return f.indexedMem.Get(rid)
}

func (f *faultyMem) Delete(rid storageRID) error {
	n := f.dels
	f.dels++
	if f.delErr != nil && n == f.delAfter {
		return f.delErr
	}
	return f.indexedMem.Delete(rid)
}

func (f *faultyMem) Update(rid storageRID, tup catalog.Tuple) error {
	n := f.upds
	f.upds++
	if f.updErr != nil && n == f.updAfter {
		return f.updErr
	}
	return f.indexedMem.Update(rid, tup)
}

// newFaultyMem builds a table where a = i % 10 (so an equality probe on a
// yields several candidate RIDs) and b = i.
func newFaultyMem(rows int) *faultyMem {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Length: 8},
		{Name: "b", Type: catalog.TypeInt, Length: 8},
	})
	mt := &memTable{schema: schema}
	for i := 0; i < rows; i++ {
		mt.rows = append(mt.rows, catalog.Tuple{catalog.NewInt(int64(i % 10)), catalog.NewInt(int64(i))})
	}
	return &faultyMem{
		indexedMem: &indexedMem{memTable: mt, serve: true},
		getAfter:   -1, delAfter: -1, updAfter: -1,
	}
}

// An I/O fault surfacing from an indexed Get fails the SELECT instead of
// silently dropping the row (the pre-fix accessPath swallowed it with a bare
// continue).
func TestSelectIndexedGetFaultFails(t *testing.T) {
	ioErr := errors.New("disk on fire")
	fm := newFaultyMem(50)
	fm.getErr, fm.getAfter = ioErr, 2
	cat := memCatalog2{"t": fm}
	sel, _ := sql.ParseSelect(`SELECT b FROM t WHERE a = 3`)
	if _, err := Select(cat, sel, nil); !errors.Is(err, ioErr) {
		t.Fatalf("indexed SELECT err = %v, want the injected fault", err)
	}
	// The same fault wrapped as not-found is the legal concurrent-free skip.
	fm2 := newFaultyMem(50)
	fm2.getErr = fmt.Errorf("%w: slot reused", storage.ErrNotFound)
	fm2.getAfter = 0
	rows, err := Select(memCatalog2{"t": fm2}, sel, nil)
	if err != nil {
		t.Fatalf("not-found skip: %v", err)
	}
	if rows.Len() == 0 {
		t.Fatal("every candidate skipped; expected the remaining rows")
	}
}

// A faulted Delete fails the DELETE with the rows-so-far count, never
// reporting success over a partial effect.
func TestDeleteFaultFailsStatement(t *testing.T) {
	ioErr := errors.New("write-back failed")
	fm := newFaultyMem(50)
	fm.delErr, fm.delAfter = ioErr, 3
	cat := memCatalog2{"t": fm}
	del, _ := sql.Parse(`DELETE FROM t WHERE b >= 0`)
	n, err := Delete(cat, del.(*sql.DeleteStmt), nil)
	if !errors.Is(err, ioErr) {
		t.Fatalf("DELETE err = %v, want the injected fault", err)
	}
	if n != 3 {
		t.Fatalf("DELETE reported %d rows before the fault, want 3", n)
	}
}

// A faulted re-read or write-back inside UPDATE fails the statement; a
// not-found on the re-read is the legal skip.
func TestUpdateFaultFailsStatement(t *testing.T) {
	ioErr := errors.New("torn page")
	fm := newFaultyMem(50)
	fm.getErr, fm.getAfter = ioErr, 60 // past matching()'s Gets, into the update loop
	fm.serve = false                   // scan path: matching does no Gets
	cat := memCatalog2{"t": fm}
	upd, _ := sql.Parse(`UPDATE t SET b = 1 WHERE b >= 0`)
	fm.getAfter = 10
	if _, err := Update(cat, upd.(*sql.UpdateStmt), nil); !errors.Is(err, ioErr) {
		t.Fatalf("UPDATE re-read err = %v, want the injected fault", err)
	}

	fm2 := newFaultyMem(50)
	fm2.serve = false
	fm2.updErr, fm2.updAfter = ioErr, 5
	n, err := Update(memCatalog2{"t": fm2}, upd.(*sql.UpdateStmt), nil)
	if !errors.Is(err, ioErr) {
		t.Fatalf("UPDATE write err = %v, want the injected fault", err)
	}
	if n != 5 {
		t.Fatalf("UPDATE reported %d rows before the fault, want 5", n)
	}

	// Not-found on the re-read: cursor skips, statement succeeds.
	fm3 := newFaultyMem(50)
	fm3.serve = false
	fm3.getErr = fmt.Errorf("%w: reclaimed", storage.ErrNotFound)
	fm3.getAfter = 0
	n, err = Update(memCatalog2{"t": fm3}, upd.(*sql.UpdateStmt), nil)
	if err != nil {
		t.Fatalf("not-found skip failed the UPDATE: %v", err)
	}
	if n != 49 {
		t.Fatalf("UPDATE n = %d, want 49 (one legal skip)", n)
	}
}

// The vectorized pipeline's indexed path has the same discipline.
func TestPlanIndexedGetFaultFails(t *testing.T) {
	ioErr := errors.New("checksum mismatch")
	fm := newFaultyMem(50)
	fm.getErr, fm.getAfter = ioErr, 1
	cat := memCatalog2{"t": fm}
	sel, _ := sql.ParseSelect(`SELECT b FROM t WHERE a = 3`)
	pl, err := CompileSelect(cat, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Vectorized() {
		t.Fatal("expected vectorized plan")
	}
	if _, err := pl.Execute(cat, nil); !errors.Is(err, ioErr) {
		t.Fatalf("plan indexed Get err = %v, want the injected fault", err)
	}
}

// memCatalog with strings.ToLower is case-insensitive; make sure the plan's
// table binding matches qualified references case-insensitively too.
func TestPlanQualifiedBinding(t *testing.T) {
	mt := planTable(20, 10)
	cat := memCatalog{"t": mt}
	runBoth(t, cat, `SELECT T.a FROM t WHERE T.b < 50`, nil)
	_ = strings.ToLower("") // keep strings imported if cases above change
}

// sinkLog records what a plan delivers to its Sink, copying each row as the
// contract requires.
type sinkLog struct {
	begins int
	cols   []string
	rows   []catalog.Tuple
}

func (s *sinkLog) Begin(cols []string)   { s.begins++; s.cols = cols }
func (s *sinkLog) Add(row catalog.Tuple) { s.rows = append(s.rows, row.Clone()) }

// Over a kv whose k = 7 has v = 0, a statement whose projection divides by v
// answers the LIMIT's rows through either executor, since neither reads a
// row after the one that reaches the LIMIT: the tree-walker stops its WHERE
// there and projects only the kept rows, as the compiled plan stops its
// scan. Rows past the LIMIT still fail a statement whose LIMIT does not end
// before them.
func TestTreeWalkerStopsAtLimit(t *testing.T) {
	mt := &memTable{schema: catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8},
	})}
	for k := int64(0); k < 20; k++ {
		v := 100 + k
		if k == 7 {
			v = 0
		}
		mt.rows = append(mt.rows, catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)})
	}
	cat := memCatalog{"kv": mt}
	for _, c := range []struct {
		q    string
		want string
	}{
		{`SELECT k, 10 / v FROM kv LIMIT 2`, "[(0, 0) (1, 0)]"},
		{`SELECT k FROM kv WHERE 10 / v >= 0 LIMIT 3`, "[(0) (1) (2)]"},
		{`SELECT k, 1000 / v FROM kv WHERE k > 3 LIMIT 3`, "[(4, 9) (5, 9) (6, 9)]"},
		{`SELECT k, 10 / v FROM kv LIMIT 0`, "[]"},
		{`SELECT k, 10 / v FROM kv LIMIT 8`, "division by zero"},
	} {
		walked, werr := Select(cat, mustSelect(t, c.q), nil)
		pl, err := CompileSelect(cat, mustSelect(t, c.q), nil)
		if err != nil || !pl.Vectorized() {
			t.Fatalf("%q: not compiled (%v)", c.q, err)
		}
		compiled, cerr := pl.Execute(cat, nil)
		for name, got := range map[string]struct {
			rows *Rows
			err  error
		}{"tree-walker": {walked, werr}, "compiled": {compiled, cerr}} {
			answer := ""
			if got.err != nil {
				answer = got.err.Error()
			} else {
				answer = fmt.Sprint(got.rows.Tuples)
			}
			if !strings.Contains(answer, c.want) {
				t.Errorf("%s %q: %s, want %s", name, c.q, answer, c.want)
			}
		}
	}
}

// ExecuteInto delivers the compiled scan's, the indexed fetch's, the
// aggregate's and a fallback plan's rows to the sink as the materialized
// result holds them, after one Begin with the result's columns; LIMIT counts
// the rows delivered; and a stale plan fails before it begins the sink.
func TestExecuteIntoSink(t *testing.T) {
	mt := planTable(300, 5)
	cat := memCatalog{"t": mt}
	idx := &indexedMem{memTable: mt, serve: true}
	for _, c := range []struct {
		cat Catalog
		q   string
	}{
		{cat, `SELECT a, b FROM t WHERE b < 40`},
		{cat, `SELECT a, b, c FROM t WHERE c > 10 LIMIT 7`},
		{cat, `SELECT a FROM t LIMIT 0`},
		{cat, `SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b LIMIT 5`},
		{cat, `SELECT a, b FROM t WHERE b < 40 ORDER BY a DESC LIMIT 4`},
		{memCatalog2{"t": idx}, `SELECT a, b, c, s FROM t WHERE a = 7`},
	} {
		cat, q := c.cat, c.q
		pl, err := CompileSelect(cat, mustSelect(t, q), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pl.Execute(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got sinkLog
		if err := pl.ExecuteInto(cat, nil, 0, &got); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if got.begins != 1 || fmt.Sprint(got.cols) != fmt.Sprint(want.Columns) || fmt.Sprint(got.rows) != fmt.Sprint(want.Tuples) {
			t.Fatalf("%q: sink saw %d begins, %v %v; Execute answers %v %v", q, got.begins, got.cols, got.rows, want.Columns, want.Tuples)
		}
	}
	if idx.lookups == 0 {
		t.Fatal("no statement took the index access path")
	}
	pl, err := CompileSelect(cat, mustSelect(t, `SELECT a FROM t`), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stale sinkLog
	replaced := memCatalog{"t": &memTable{schema: catalog.MustSchema("t", mt.schema.Columns), rows: mt.rows}}
	if err := pl.ExecuteInto(replaced, nil, 0, &stale); !errors.Is(err, ErrPlanStale) || stale.begins != 0 || len(stale.rows) != 0 {
		t.Fatalf("stale plan: %v, sink saw %d begins and %d rows", err, stale.begins, len(stale.rows))
	}
}
