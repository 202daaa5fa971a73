package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

// aggTable builds a memTable of several pages with an int, a NULL-bearing
// int, a NULL-bearing float and a NULL-bearing string column. The floats are
// multiples of 0.25, so sums are exact whatever order they are added in. For
// the int group key it adds NULL-bearing columns of negative ints (n), dates
// (d) and bools (k), and a column w of 2^53 and 2^53+1, which are one number
// as float64; a second generator fills them, so the first five columns stay
// as they were.
func aggTable(rows int, seed int64) *memTable {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Length: 8},
		{Name: "b", Type: catalog.TypeInt, Length: 8},
		{Name: "c", Type: catalog.TypeInt, Length: 8},
		{Name: "f", Type: catalog.TypeFloat, Length: 8},
		{Name: "s", Type: catalog.TypeString, Length: 16},
		{Name: "n", Type: catalog.TypeInt, Length: 8},
		{Name: "d", Type: catalog.TypeDate, Length: 8},
		{Name: "k", Type: catalog.TypeBool, Length: 1},
		{Name: "w", Type: catalog.TypeInt, Length: 8},
	})
	rng, more := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1))
	orNull := func(rng *rand.Rand, v catalog.Value) catalog.Value {
		if rng.Intn(5) == 0 {
			return catalog.Null
		}
		return v
	}
	mt := &memTable{schema: schema}
	for i := 0; i < rows; i++ {
		mt.rows = append(mt.rows, catalog.Tuple{
			catalog.NewInt(int64(i)),
			catalog.NewInt(rng.Int63n(100)),
			orNull(rng, catalog.NewInt(rng.Int63n(6))),
			orNull(rng, catalog.NewFloat(float64(rng.Intn(400))/4)),
			orNull(rng, catalog.NewString(fmt.Sprintf("s%d", rng.Intn(8)))),
			orNull(more, catalog.NewInt(more.Int63n(7)-5)),
			orNull(more, catalog.NewDate(10000+more.Int63n(5))),
			orNull(more, catalog.NewBool(more.Intn(2) == 0)),
			catalog.NewInt(1<<53 + more.Int63n(2)),
		})
	}
	return mt
}

// The compiled aggregate is pinned row for row against the tree-walker. Every
// statement here must compile to the aggregate path and succeed on the
// tree-walker too; runBoth also re-executes the plan.
func TestPlanAggregateDifferential(t *testing.T) {
	cat := memCatalog{"t": aggTable(1000, 11)}
	queries := []string{
		// Each aggregate over int, float, string and NULL-bearing columns.
		`SELECT COUNT(*) FROM t`,
		`SELECT COUNT(b), COUNT(c), COUNT(f), COUNT(s) FROM t`,
		`SELECT SUM(b), SUM(c), SUM(f), AVG(b), AVG(c), AVG(f) FROM t`,
		`SELECT MIN(b), MAX(b), MIN(c), MAX(c), MIN(f), MAX(f), MIN(s), MAX(s) FROM t`,
		`SELECT COUNT(*) AS n, SUM(b) + 1, SUM(f) * 2 FROM t`,
		// One key, two keys and expression keys; NULL keys group together.
		`SELECT s, COUNT(*), SUM(b) FROM t GROUP BY s`,
		`SELECT s, c, COUNT(*), AVG(f), MAX(b) FROM t GROUP BY s, c`,
		`SELECT c, s, MIN(s) FROM t GROUP BY s, c`,
		`SELECT b / 7, COUNT(*), SUM(c) FROM t GROUP BY b / 7`,
		`SELECT b / 7 + 1, MAX(f) FROM t GROUP BY b / 7`,
		`SELECT COUNT(*) FROM t GROUP BY b / 7`,
		`SELECT t.s, COUNT(*) FROM t GROUP BY t.s`,
		// HAVING, on aggregates absent from the select list too.
		`SELECT s FROM t GROUP BY s HAVING SUM(b) > 6000`,
		`SELECT s, COUNT(*) FROM t GROUP BY s HAVING MIN(c) IS NULL OR MAX(f) < 99`,
		`SELECT COUNT(*) FROM t HAVING COUNT(*) > 5`,
		// Aggregates nested in other expressions (the tree-walker used to
		// reject all four).
		`SELECT ABS(SUM(b)) FROM t`,
		`SELECT s, COALESCE(MAX(c), 0) FROM t GROUP BY s`,
		`SELECT s FROM t GROUP BY s HAVING SUM(b) BETWEEN 0 AND 100000`,
		`SELECT c, COUNT(*) FROM t GROUP BY c HAVING COUNT(*) IN (25, 30, 31, 171)`,
		`SELECT s, CASE WHEN SUM(b) > 6000 THEN 'big' ELSE 'small' END FROM t GROUP BY s`,
		// Empty input: one row without GROUP BY, none with it.
		`SELECT COUNT(*), SUM(b), AVG(f), MIN(s) FROM t WHERE b < 0`,
		`SELECT s, COUNT(*) FROM t WHERE b < 0 GROUP BY s`,
		`SELECT COUNT(*) FROM t WHERE b < 0 HAVING COUNT(*) > 0`,
		// LIMIT.
		`SELECT s, SUM(b) FROM t GROUP BY s LIMIT 0`,
		`SELECT s, SUM(b) FROM t GROUP BY s LIMIT 1`,
		`SELECT COUNT(*) FROM t LIMIT 0`,
		`SELECT COUNT(*) FROM t LIMIT 1`,
		// Parameters.
		`SELECT s, SUM(b) FROM t WHERE b < :p GROUP BY s`,
		`SELECT c, COUNT(*) FROM t WHERE c >= :q GROUP BY c HAVING COUNT(*) > :p`,
		`SELECT SUM(b) - :p FROM t`,
		// One int key, grouped by its int64 payload: a NULL-bearing INT,
		// negative INTs, a DATE, a BOOL, and 2^53 beside 2^53+1.
		`SELECT c, COUNT(*), COUNT(f), SUM(b), MIN(s) FROM t GROUP BY c`,
		`SELECT n, COUNT(*), SUM(n), AVG(f), MAX(d) FROM t GROUP BY n`,
		`SELECT n FROM t WHERE b < :p GROUP BY n HAVING SUM(b) > 100`,
		`SELECT d, COUNT(*), MIN(n), MAX(k) FROM t GROUP BY d`,
		`SELECT k, COUNT(k), SUM(c), MIN(d) FROM t GROUP BY k`,
		`SELECT t.w, COUNT(*), SUM(b) FROM t GROUP BY t.w`,
		`SELECT c, COUNT(*) FROM t GROUP BY c LIMIT 3`,
	}
	params := Params{"p": catalog.NewInt(42), "q": catalog.NewInt(2)}
	for _, q := range queries {
		sel := mustSelect(t, q)
		if _, err := Select(cat, sel, params); err != nil {
			t.Fatalf("%q: tree-walker: %v", q, err)
		}
		pl, err := CompileSelect(cat, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pl.agg == nil {
			t.Fatalf("%q: not compiled to the aggregate path", q)
		}
		runBoth(t, cat, q, params)
	}

	// Only one column key of type INT, DATE or BOOL groups by its payload.
	for q, want := range map[string]catalog.Type{
		`SELECT COUNT(*) FROM t GROUP BY c`:     catalog.TypeInt,
		`SELECT COUNT(*) FROM t GROUP BY t.w`:   catalog.TypeInt,
		`SELECT COUNT(*) FROM t GROUP BY d`:     catalog.TypeDate,
		`SELECT COUNT(*) FROM t GROUP BY k`:     catalog.TypeBool,
		`SELECT COUNT(*) FROM t GROUP BY f`:     catalog.TypeNull,
		`SELECT COUNT(*) FROM t GROUP BY s`:     catalog.TypeNull,
		`SELECT COUNT(*) FROM t GROUP BY c, k`:  catalog.TypeNull,
		`SELECT COUNT(*) FROM t GROUP BY c + 0`: catalog.TypeNull,
		`SELECT COUNT(*) FROM t`:                catalog.TypeNull,
	} {
		pl, err := CompileSelect(cat, mustSelect(t, q), nil)
		if err != nil || pl.agg == nil {
			t.Fatalf("%q: not an aggregate plan (%v)", q, err)
		}
		if pl.agg.intKey != want {
			t.Errorf("%q: int key type %v, want %v", q, pl.agg.intKey, want)
		}
	}
	// 2^53 and 2^53+1 are one float64 and hash alike, but they are two groups.
	pl, err := CompileSelect(cat, mustSelect(t, `SELECT w, COUNT(*) FROM t GROUP BY w`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pl.Execute(cat, nil); err != nil || got.Len() != 2 {
		t.Fatalf("GROUP BY w over 2^53 and 2^53+1: %v (%v), want two groups", got, err)
	}

	// An error mid-walk (some row has b = 50) fails both executors, and the
	// failed plan returns no rows.
	for _, q := range []string{
		`SELECT SUM(1 / (b - 50)) FROM t`,
		`SELECT s, SUM(1 / (b - 50)) FROM t GROUP BY s`,
		`SELECT COUNT(*) FROM t WHERE 1 / (b - 50) > 0`,
		`SELECT SUM(s) FROM t`,
		`SELECT s FROM t GROUP BY s HAVING SUM(b) > :unbound`,
	} {
		sel := mustSelect(t, q)
		_, werr := Select(cat, sel, nil)
		pl, err := CompileSelect(cat, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, gerr := pl.Execute(cat, nil)
		if werr == nil || gerr == nil {
			t.Fatalf("%q: expected both to fail, tree-walker=%v plan=%v", q, werr, gerr)
		}
		if got != nil {
			t.Fatalf("%q: failed plan leaked %d rows", q, got.Len())
		}
	}
}

// The aggregate's per-tuple slot choice is outcome-invisible, as the scan's
// is: neighbours on one page fold their filter, key and inputs from different
// slots, and the fold answers like the CASE-rewritten statement over the
// stored table.
func TestPlanAggregateFastPathSplit(t *testing.T) {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "vn", Type: catalog.TypeInt, Length: 8},
		{Name: "g", Type: catalog.TypeInt, Length: 8},
		{Name: "cur", Type: catalog.TypeInt, Length: 8},
		{Name: "pre", Type: catalog.TypeInt, Length: 8},
	})
	mt := &memTable{schema: schema}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 900; i++ {
		vn := int64(1)
		if i > 400 && rng.Intn(6) == 0 {
			vn = 100
		}
		mt.rows = append(mt.rows, catalog.Tuple{catalog.NewInt(vn), catalog.NewInt(int64(i % 5)),
			catalog.NewInt(rng.Int63n(50)), catalog.NewInt(rng.Int63n(50))})
	}
	cat := memCatalog{"t": mt}
	opts := &CompileOptions{
		Slots: [][]int{{1, 2}, {1, 3}},
		Select: func(row catalog.Tuple, cut int64) (int, bool) {
			if cut >= row[0].Int() {
				return 0, true
			}
			return 1, true
		},
	}
	const val = `CASE WHEN :cut >= vn THEN cur ELSE pre END`
	for _, c := range []struct{ stmt, rewritten string }{
		{`SELECT g, COUNT(*), SUM(cur), MAX(cur) FROM t WHERE cur < 40 GROUP BY g HAVING MIN(cur) >= 0`,
			`SELECT g, COUNT(*), SUM(` + val + `), MAX(` + val + `) FROM t WHERE ` + val + ` < 40 GROUP BY g HAVING MIN(` + val + `) >= 0`},
		// The one int key is itself versioned: it is read at each tuple's
		// slot, and the oracle groups the CASE by hash.
		{`SELECT cur, COUNT(*), SUM(g) FROM t WHERE g < 4 GROUP BY cur`,
			`SELECT ` + val + `, COUNT(*), SUM(g) FROM t WHERE g < 4 GROUP BY ` + val},
	} {
		pl, err := CompileSelect(cat, mustSelect(t, c.stmt), opts)
		if err != nil {
			t.Fatal(err)
		}
		if pl.agg == nil || pl.agg.intKey != catalog.TypeInt {
			t.Fatalf("%q: versioned aggregate not compiled with an int key", c.stmt)
		}
		rewritten := mustSelect(t, c.rewritten)
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
				t.Fatalf("%q cut=%d: split fold diverged\nplan:   %v\noracle: %v", c.stmt, cut, got.Tuples, want.Tuples)
			}
		}
	}
}

// Partials merge: folding a table in pieces cut at random page boundaries and
// merging the pieces' group tables in order answers exactly like one fold.
func TestAggregatePartialMerge(t *testing.T) {
	mt := aggTable(1200, 13)
	cat := memCatalog{"t": mt}
	rng := rand.New(rand.NewSource(14))
	pages := len(mt.rows) / memPage
	for _, q := range []string{
		`SELECT s, c, COUNT(*), COUNT(f), SUM(b), AVG(f), MIN(s), MAX(f) FROM t GROUP BY s, c`,
		`SELECT COUNT(*), SUM(f), MIN(c), MAX(s) FROM t WHERE b < 90`,
		`SELECT b / 10, AVG(c) FROM t GROUP BY b / 10 HAVING COUNT(*) > 100`,
		`SELECT c, COUNT(*), SUM(n), MIN(d), MAX(f) FROM t GROUP BY c`,
		`SELECT d, COUNT(k), AVG(n) FROM t GROUP BY d`,
	} {
		pl, err := CompileSelect(cat, mustSelect(t, q), nil)
		if err != nil || pl.agg == nil {
			t.Fatalf("%q: not an aggregate plan (%v)", q, err)
		}
		one, err := pl.Execute(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			var merged *aggRun
			for lo := 0; lo < pages; {
				hi := lo + 1 + rng.Intn(pages-lo)
				r := pl.newAggRun(pl.comp.newCtx(nil, 0))
				if err := r.foldTable(&memTable{schema: mt.schema, rows: mt.rows[lo*memPage : hi*memPage]}); err != nil {
					t.Fatal(err)
				}
				if merged == nil {
					merged = r
				} else if err := merged.part.merge(&r.part); err != nil {
					t.Fatal(err)
				}
				lo = hi
			}
			got := &Rows{Columns: pl.columns}
			if err := merged.finish(got); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Tuples) != fmt.Sprint(one.Tuples) {
				t.Fatalf("%q trial %d: merged partials diverged\nmerged: %v\none:    %v", q, trial, got.Tuples, one.Tuples)
			}
		}
	}
}

// The fold keeps no tuple, so what an aggregate allocates depends on its
// groups, not on the rows it reads. An int key, grouped by its payload,
// allocates no more than the same groups keyed by hash.
func TestAggregateFoldAllocatesPerGroup(t *testing.T) {
	allocs := func(q string, mt *memTable) float64 {
		cat := memCatalog{"t": mt}
		pl, err := CompileSelect(cat, mustSelect(t, q), nil)
		if err != nil || pl.agg == nil {
			t.Fatalf("%q: not an aggregate plan (%v)", q, err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := pl.Execute(cat, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const (
		hashed = `SELECT s, COUNT(*), SUM(b), MIN(c) FROM t WHERE b >= 0 GROUP BY s`
		intKey = `SELECT c, COUNT(*), SUM(b), MIN(f) FROM t WHERE b >= 0 GROUP BY c`
		// The same groups as intKey's, keyed by hash.
		intHashed = `SELECT c + 0, COUNT(*), SUM(b), MIN(f) FROM t WHERE b >= 0 GROUP BY c + 0`
	)
	for _, c := range []struct {
		q     string
		table func(rows int, seed int64) *memTable
	}{{hashed, planTable}, {intKey, aggTable}} {
		small, large := allocs(c.q, c.table(1000, 15)), allocs(c.q, c.table(8000, 15))
		if large > small {
			t.Fatalf("%q: 8 000 rows allocate %.0f times, 1 000 rows %.0f: the fold allocates per row", c.q, large, small)
		}
		t.Logf("%q: %.0f allocations per execution", c.q, small)
	}
	mt := aggTable(4000, 15)
	if typed, hash := allocs(intKey, mt), allocs(intHashed, mt); typed > hash {
		t.Fatalf("the int key allocates %.0f times per execution, the same groups by hash %.0f", typed, hash)
	}
}

// A SUM of INT values that leaves the int64 range fails the statement, on the
// compiled fold, on the tree-walker and when two partials merge; AVG, whose
// sum is a float, still answers, and sums that reach the range's ends exactly
// do not fail.
func TestAggregateSumOverflow(t *testing.T) {
	table := func(vals ...int64) memCatalog {
		mt := &memTable{schema: catalog.MustSchema("t", []catalog.Column{
			{Name: "g", Type: catalog.TypeInt, Length: 8},
			{Name: "a", Type: catalog.TypeInt, Length: 8},
		})}
		for _, v := range vals {
			mt.rows = append(mt.rows, catalog.Tuple{catalog.NewInt(1), catalog.NewInt(v)})
		}
		return memCatalog{"t": mt}
	}
	both := func(cat memCatalog, q string) (compiled, walked *Rows, cerr, werr error) {
		sel := mustSelect(t, q)
		pl, err := CompileSelect(cat, sel, nil)
		if err != nil || pl.agg == nil {
			t.Fatalf("%q: not an aggregate plan (%v)", q, err)
		}
		compiled, cerr = pl.Execute(cat, nil)
		walked, werr = Select(cat, sel, nil)
		return
	}
	const big = 1 << 62
	for _, vals := range [][]int64{{big, big, big, big}, {-big, -big, -big}, {math.MaxInt64, 1}} {
		cat := table(vals...)
		for _, q := range []string{`SELECT SUM(a), AVG(a) FROM t`, `SELECT g, SUM(a) FROM t GROUP BY g`} {
			if _, _, cerr, werr := both(cat, q); !errors.Is(cerr, errSumOverflow) || !errors.Is(werr, errSumOverflow) {
				t.Fatalf("%q over %v: compiled %v, tree-walker %v; want %v from both", q, vals, cerr, werr, errSumOverflow)
			}
		}
	}
	for _, c := range []struct {
		q    string
		vals []int64
		want string
	}{
		{`SELECT AVG(a) FROM t`, []int64{big, big, big, big}, "4.611686018427388e+18"},
		{`SELECT AVG(a) FROM t`, []int64{-big, -big}, "-4.611686018427388e+18"},
		{`SELECT SUM(a) FROM t`, []int64{big, big - 1}, "9223372036854775807"},
		{`SELECT SUM(a) FROM t`, []int64{-big, -big}, "-9223372036854775808"},
	} {
		compiled, walked, cerr, werr := both(table(c.vals...), c.q)
		if cerr != nil || werr != nil || compiled.Tuples[0][0].String() != c.want || walked.Tuples[0][0].String() != c.want {
			t.Fatalf("%q over %v: compiled %v (%v), tree-walker %v (%v); want %s", c.q, c.vals, compiled, cerr, walked, werr, c.want)
		}
	}

	// Each part sums inside the range, and their merge does not.
	cat := table(big, big-1, 1)
	pl, err := CompileSelect(cat, mustSelect(t, `SELECT g, SUM(a) FROM t GROUP BY g`), nil)
	if err != nil {
		t.Fatal(err)
	}
	fold := func(rows []catalog.Tuple) *aggRun {
		r := pl.newAggRun(pl.comp.newCtx(nil, 0))
		if err := r.foldTable(&memTable{schema: cat["t"].schema, rows: rows}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	rows := cat["t"].rows
	first, second := fold(rows[:2]), fold(rows[2:])
	if err := first.part.merge(&second.part); !errors.Is(err, errSumOverflow) {
		t.Fatalf("merging partials that sum to 2^63: %v, want %v", err, errSumOverflow)
	}
}
