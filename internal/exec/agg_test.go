package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

// aggTable builds a memTable of several pages with an int, a NULL-bearing
// int, a NULL-bearing float and a NULL-bearing string column. The floats are
// multiples of 0.25, so sums are exact whatever order they are added in.
func aggTable(rows int, seed int64) *memTable {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Length: 8},
		{Name: "b", Type: catalog.TypeInt, Length: 8},
		{Name: "c", Type: catalog.TypeInt, Length: 8},
		{Name: "f", Type: catalog.TypeFloat, Length: 8},
		{Name: "s", Type: catalog.TypeString, Length: 16},
	})
	rng := rand.New(rand.NewSource(seed))
	orNull := func(v catalog.Value) catalog.Value {
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
			orNull(catalog.NewInt(rng.Int63n(6))),
			orNull(catalog.NewFloat(float64(rng.Intn(400)) / 4)),
			orNull(catalog.NewString(fmt.Sprintf("s%d", rng.Intn(8)))),
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
	const val = `CASE WHEN :cut >= vn THEN cur ELSE pre END`
	rewritten := mustSelect(t, `SELECT g, COUNT(*), SUM(`+val+`), MAX(`+val+`) FROM t WHERE `+val+` < 40 GROUP BY g HAVING MIN(`+val+`) >= 0`)
	pl, err := CompileSelect(cat, mustSelect(t, `SELECT g, COUNT(*), SUM(cur), MAX(cur) FROM t WHERE cur < 40 GROUP BY g HAVING MIN(cur) >= 0`), &CompileOptions{
		Slots: [][]int{{1, 2}, {1, 3}},
		Select: func(row catalog.Tuple, cut int64) (int, bool) {
			if cut >= row[0].Int() {
				return 0, true
			}
			return 1, true
		},
		Param: "cut",
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.agg == nil {
		t.Fatal("versioned aggregate not compiled")
	}
	for _, cut := range []int64{0, 1, 99, 100} {
		params := Params{"cut": catalog.NewInt(cut)}
		got, err := pl.Execute(cat, params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Select(cat, rewritten, params)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
			t.Fatalf("cut=%d: split fold diverged\nplan:   %v\noracle: %v", cut, got.Tuples, want.Tuples)
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
				r, err := pl.newAggRun(nil, 0, false)
				if err != nil {
					t.Fatal(err)
				}
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
			got, err := merged.finish(&Rows{Columns: pl.columns})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Tuples) != fmt.Sprint(one.Tuples) {
				t.Fatalf("%q trial %d: merged partials diverged\nmerged: %v\none:    %v", q, trial, got.Tuples, one.Tuples)
			}
		}
	}
}

// The fold keeps no tuple, so what an aggregate allocates depends on its
// groups, not on the rows it reads.
func TestAggregateFoldAllocatesPerGroup(t *testing.T) {
	sel := mustSelect(t, `SELECT s, COUNT(*), SUM(b), MIN(c) FROM t WHERE b >= 0 GROUP BY s`)
	allocs := func(rows int) float64 {
		cat := memCatalog{"t": planTable(rows, 15)}
		pl, err := CompileSelect(cat, sel, nil)
		if err != nil || pl.agg == nil {
			t.Fatalf("not an aggregate plan (%v)", err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := pl.Execute(cat, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	if large > small {
		t.Fatalf("8 000 rows allocate %.0f times, 1 000 rows %.0f: the fold allocates per row", large, small)
	}
	t.Logf("%.0f allocations per execution over 10 groups", small)
}
