package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// foldSlots is the number of slots on one of foldTable's pages.
const foldSlots = 16

// foldTable stores a versioned relation for the typed fold on a summarised
// heap: a stored tuple is (vn, del, k, d, b, a, pre_a), and statements name
// the base columns (k, d, b, a). A reader at cut ≥ vn reads the current copy
// and sees the tuple unless del is set; a reader below vn reads pre_a and
// sees the tuple. The heap's summary reads (vn, del), so PageView.Current
// holds exactly when Select answers (0, true), as it does for the engine's
// relations. The heap images k, d, b and a.
//
// Page by page: pages 0–3 hold version 1, pages 4–7 mix versions 1–3 and
// deletions, so a reader at 1 or 2 meets pages where current and other slots
// alternate. The first key stored is 1 000; keys include ones below it, at
// the window's far edge, past it, negative, at the int64 extremes and NULL.
// Page 2 holds a NULL in a and page 3 a FLOAT in a, so the image declines a
// there; page 5 holds the only NULL keys. Key 77 lives only in tuples deleted
// at version 2: its group is empty for every reader at 2 or later. With
// overflow set, group 1 000 sums to more than int64 holds in page 6's slots 1–
// 4, all written at version 1, and a = -100, which a WHERE that divides by
// a + 100 fails on, sits after them in slot 9 or, with divFirst set, before
// them in slot 0; every other a + 100 is positive.
func foldTable(t *testing.T, seed int64, overflow, divFirst bool) (*heapTable, *memTable, *CompileOptions) {
	t.Helper()
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "vn", Type: catalog.TypeInt, Length: 8},
		{Name: "del", Type: catalog.TypeBool, Length: 1},
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "d", Type: catalog.TypeDate, Length: 8},
		{Name: "b", Type: catalog.TypeBool, Length: 1},
		{Name: "a", Type: catalog.TypeInt, Length: 8},
		{Name: "pre_a", Type: catalog.TypeInt, Length: 8},
	})
	heap, err := storage.NewHeap("t", len(schema.Columns), 64, 64*foldSlots, nil)
	if err != nil {
		t.Fatal(err)
	}
	image := []storage.Imaged{{Off: 2, Kind: catalog.TypeInt}, {Off: 3, Kind: catalog.TypeDate},
		{Off: 4, Kind: catalog.TypeBool}, {Off: 5, Kind: catalog.TypeInt}}
	if err := heap.SetSummariser(func(tu catalog.Tuple) (int64, bool) { return tu[0].Int(), tu[1].Bool() }, image); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	keys := []int64{1000, 1001, 1003, 999, 1000 + maxWindow - 1, 1000 + maxWindow, 1000 + 9000, -4, -1 << 40, math.MinInt64, math.MaxInt64}
	for r := 0; r < 9*foldSlots; r++ {
		pg, slot := r/foldSlots, r%foldSlots
		vn, del := int64(1), false
		if pg >= 4 && pg < 8 {
			vn, del = 1+rng.Int63n(3), rng.Intn(6) == 0
		}
		k := catalog.NewInt(keys[rng.Intn(len(keys))])
		if r == 0 {
			k = catalog.NewInt(1000)
		}
		a := catalog.NewInt(rng.Int63n(200) - 50)
		switch {
		case pg == 2 && slot == 5:
			a = catalog.Null
		case pg == 3 && slot == 7:
			a = catalog.NewFloat(2.5)
		case pg == 5 && slot%5 == 1:
			k = catalog.Null
		case pg == 7 && slot < 3:
			k, vn, del = catalog.NewInt(77), 2, true
		case overflow && pg == 6 && slot >= 1 && slot <= 4:
			k, vn, del, a = catalog.NewInt(1000), 1, false, catalog.NewInt(1<<62)
		case overflow && pg == 6 && slot == 9 && !divFirst, overflow && pg == 6 && slot == 0 && divFirst:
			vn, del, a = 1, false, catalog.NewInt(-100)
		}
		row := catalog.Tuple{catalog.NewInt(vn), catalog.NewBool(del), k,
			catalog.NewDate(9780 + rng.Int63n(4)), catalog.NewBool(rng.Intn(2) == 0), a, catalog.NewInt(rng.Int63n(100))}
		if _, err := heap.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	mt := &memTable{schema: schema}
	heap.Scan(func(_ storage.RID, tu catalog.Tuple) bool {
		mt.rows = append(mt.rows, tu)
		return true
	})
	return &heapTable{schema: schema, heap: heap}, mt, &CompileOptions{
		Slots: [][]int{{2, 3, 4, 5}, {2, 3, 4, 6}},
		Select: func(row catalog.Tuple, cut int64) (int, bool) {
			if cut >= row[0].Int() {
				return 0, !row[1].Bool()
			}
			return 1, true
		},
	}
}

// The typed fold answers as the per-tuple fold, rows and errors alike, and
// as the tree-walker over the table materialized at the reader's version:
// over int, DATE and BOOL keys, keys that leave the window above and below
// the first key seen, negative and NULL keys, a group emptied by deletes,
// pages that mix current and other slots, and pages where a NULL or a FLOAT
// in the SUM's column sends the page to the per-tuple path. With an
// overflowing group it fails with errSumOverflow, on the typed path of a
// dirty page, exactly where the per-tuple fold does: before a WHERE that
// divides by zero at a later slot, and not before one that does so at an
// earlier slot.
func TestTypedFoldMatchesPerTuple(t *testing.T) {
	queries := []string{
		`SELECT k, COUNT(*), SUM(a), COUNT(a) FROM t GROUP BY k`,
		`SELECT k, SUM(a) FROM t WHERE a < :hi GROUP BY k`,
		`SELECT k, COUNT(*) FROM t WHERE b = TRUE GROUP BY k HAVING COUNT(*) > 1`,
		`SELECT d, COUNT(*), SUM(a) FROM t GROUP BY d`,
		`SELECT b, SUM(a), COUNT(*) FROM t GROUP BY b`,
		`SELECT k, SUM(a) FROM t GROUP BY k LIMIT 4`,
		`SELECT k, COUNT(*), SUM(a) FROM t WHERE 10 / (a + 100) <> 99 GROUP BY k`,
	}
	params := Params{"hi": catalog.NewInt(60)}
	typedPages := 0
	for _, fixture := range []struct{ overflow, divFirst bool }{{false, false}, {true, false}, {true, true}} {
		ht, mt, opts := foldTable(t, 56, fixture.overflow, fixture.divFirst)
		heapCat, memCat := memCatalog2{"t": ht}, memCatalog{"t": mt}
		for _, q := range queries {
			stmt := mustSelect(t, q)
			pl, err := CompileSelect(heapCat, stmt, opts)
			if err != nil || pl.agg == nil || pl.agg.typed == nil {
				t.Fatalf("%q: not compiled to the typed fold (%v)", q, err)
			}
			for cut := int64(0); cut <= 3; cut++ {
				what := fmt.Sprintf("%+v cut=%d %q", fixture, cut, q)
				want, werr := executeAt(pl, memCat, params, cut)
				ht.onPage = func(v storage.PageView) {
					if v.Ints(2, catalog.TypeInt) != nil && v.Ints(5, catalog.TypeInt) != nil {
						typedPages++
					}
				}
				got, gerr := executeAt(pl, heapCat, params, cut)
				ht.onPage = nil
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s: typed fold err %v, per-tuple err %v", what, gerr, werr)
				}
				wantErr := ""
				if fixture.overflow && cut >= 1 {
					switch q {
					case queries[0]:
						wantErr = errSumOverflow.Error()
					case queries[len(queries)-1]:
						if wantErr = errSumOverflow.Error(); fixture.divFirst {
							wantErr = "division by zero"
						}
					}
				}
				if wantErr != "" && (gerr == nil || !strings.Contains(gerr.Error(), wantErr)) {
					t.Fatalf("%s: err %v, want %q", what, gerr, wantErr)
				}
				if werr != nil {
					continue
				}
				if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
					t.Fatalf("%s: typed fold diverged\ntyped:     %v\nper-tuple: %v", what, got.Tuples, want.Tuples)
				}
				walked, err := Select(memCatalog{"t": asOf(mt, opts, cut)}, stmt, params)
				if err != nil || fmt.Sprint(walked.Tuples) != fmt.Sprint(got.Tuples) {
					t.Fatalf("%s: tree-walker %v (%v), typed fold %v", what, walked, err, got.Tuples)
				}
				for _, row := range got.Tuples {
					if k := row[0]; !k.IsNull() && k.Kind() != pl.agg.intKey {
						t.Fatalf("%s: a key of kind %v in a GROUP BY of type %v", what, k.Kind(), pl.agg.intKey)
					}
					if row[0].Kind() == catalog.TypeInt && row[0].Int() == 77 && cut >= 2 {
						t.Fatalf("%s: key 77, deleted at 2, still has a group: %v", what, row)
					}
				}
			}
		}
	}
	if typedPages == 0 {
		t.Fatal("no page offered the typed fold its image")
	}
	t.Logf("%d page visits offered the typed fold its image", typedPages)
}

// Only one GROUP BY column of type INT, DATE or BOOL with COUNT(*), COUNT or
// SUM of INT columns compiles the typed fold.
func TestTypedFoldShape(t *testing.T) {
	cat := memCatalog{"t": aggTable(10, 1)}
	for q, want := range map[string]bool{
		`SELECT c, COUNT(*), SUM(b), COUNT(b) FROM t GROUP BY c`:                       true,
		`SELECT d, COUNT(*) FROM t GROUP BY d`:                                         true,
		`SELECT k, SUM(n) FROM t GROUP BY k`:                                           true,
		`SELECT c, SUM(f) FROM t GROUP BY c`:                                           false, // FLOAT argument
		`SELECT c, SUM(d) FROM t GROUP BY c`:                                           false, // DATE argument
		`SELECT c, MIN(b) FROM t GROUP BY c`:                                           false,
		`SELECT c, AVG(b) FROM t GROUP BY c`:                                           false,
		`SELECT c, SUM(b + 1) FROM t GROUP BY c`:                                       false,
		`SELECT c, SUM(*) FROM t GROUP BY c`:                                           false,
		`SELECT s, COUNT(*) FROM t GROUP BY s`:                                         false,
		`SELECT c, k, COUNT(*) FROM t GROUP BY c, k`:                                   false,
		`SELECT COUNT(*), SUM(b) FROM t`:                                               false,
		`SELECT c, COUNT(*), COUNT(*), COUNT(*), COUNT(*), COUNT(*) FROM t GROUP BY c`: false, // more than maxTyped calls
	} {
		pl, err := CompileSelect(cat, mustSelect(t, q), nil)
		if err != nil || pl.agg == nil {
			t.Fatalf("%q: not an aggregate plan (%v)", q, err)
		}
		if got := pl.agg.typed != nil; got != want {
			t.Errorf("%q: typed fold %v, want %v", q, got, want)
		}
	}
}

// The window finds each group it holds, widens by doubling from the first
// payload seen up to maxWindow payloads, and leaves every other payload to
// the map; groups keep their discovery order.
func TestAggregateGroupWindow(t *testing.T) {
	p := aggPartial{fns: []aggFn{fnCountStar}, width: 1, intKey: catalog.TypeInt, null: -1}
	for _, x := range []int64{500, 501, 500 + minWindow, 499, 500 + maxWindow - 1, 500 + maxWindow, math.MinInt64, math.MaxInt64, 501, 500 + maxWindow - 1, 499} {
		states, added := p.groupPayload(x)
		if added {
			p.keys = append(p.keys, catalog.NewInt(x))
		}
		states[0].count++
	}
	if len(p.win) != maxWindow || p.winLo != 500 {
		t.Errorf("window of %d payloads from %d, want %d from 500", len(p.win), p.winLo, maxWindow)
	}
	if len(p.first) != 4 {
		t.Errorf("%d payloads in the map, want 4 (499, past the window, and the two extremes)", len(p.first))
	}
	var got []string
	for g := 0; g < p.len(); g++ {
		got = append(got, fmt.Sprintf("%v:%d", p.key(g)[0], p.statesOf(g)[0].count))
	}
	if want := "[500:1 501:2 564:1 499:2 4595:2 4596:1 -9223372036854775808:1 9223372036854775807:1]"; fmt.Sprint(got) != want {
		t.Errorf("groups %v, want %v", got, want)
	}
}
