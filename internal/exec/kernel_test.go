package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// heapTable is a Table over a storage.Heap whose pages keep a version
// summary and an image, so ScanFilter calls its pages' hook as the engine's
// tables do. onPage, when set, sees each page first.
type heapTable struct {
	schema *catalog.Schema
	heap   *storage.Heap
	onPage func(storage.PageView)
}

func (h *heapTable) Schema() *catalog.Schema                      { return h.schema }
func (h *heapTable) Scan(fn func(storageRID, catalog.Tuple) bool) { h.heap.Scan(fn) }
func (h *heapTable) Get(rid storageRID) (catalog.Tuple, error)    { return h.heap.Get(rid) }
func (h *heapTable) Insert(t catalog.Tuple) (storageRID, error)   { return h.heap.Insert(t) }
func (h *heapTable) Update(rid storageRID, t catalog.Tuple) error { return h.heap.Update(rid, t) }
func (h *heapTable) Delete(rid storageRID) error                  { return h.heap.Delete(rid) }
func (h *heapTable) ScanFilter(f storage.Filter, fn func([]storageRID, []catalog.Tuple) bool) error {
	if hook := f.Page; hook != nil && h.onPage != nil {
		f.Page = func(v storage.PageView, sel []int32) ([]int32, error) {
			h.onPage(v)
			return hook(v, sel)
		}
	}
	return h.heap.ScanFilter(f, fn)
}

// kernelSlots is the number of slots on one of kernelTable's pages.
const kernelSlots = 16

// kernelTable stores TestPlanFastPathSplit's two-slot layout with a column of
// each kernel type: a stored tuple is (vn, k, n, i, d, b, pre_i, pre_d,
// pre_b), and statements name the base columns (k, n, i, d, b). k and n sit
// at one offset in both slots; i, d and b are read from the current copy
// when the reader's version is at least vn, else from the pre-update copy.
// The heap's summary reads vn, so a page is clean at a version exactly when
// every tuple on it is read in its current copy there. Pages 0–3 hold
// version 1 only, pages 8–11 version 5 only, and pages 4–7 mix the two: a
// reader at 5 finds every page clean, at 1 some, at 0 none. Values include
// NULL, negative numbers, 2^53 and 2^53+1, and a few of another kind that
// compare without an error (a FLOAT in an INT column, a date string in a
// DATE column). The pre-update copies hold what the current ones do not, so
// reading the wrong copy changes the answer. With poison set, three tuples
// hold values that fail a comparison or a SUM. The heap images the current
// copies (k, n, i, d, b).
//
// With typed set, the current copies of k, i, d and b hold only values of
// their column's type, so most pages offer the kernel their image, except:
// page 2 holds exactly one NULL (in d), and page 10 one FLOAT (in k), so
// each falls back to the closure as a whole; page 1's slot 3 held a NULL and
// page 2's slot 9 a FLOAT, freed and reused by typed tuples, so the image
// must have counted them out; and the last page holds 5 slots of an arena
// still growing. It returns the heap table, a memTable with the same stored
// tuples in the heap's order, which calls no page clean, and the layout.
func kernelTable(t *testing.T, seed int64, poison, typed bool) (*heapTable, *memTable, *CompileOptions) {
	t.Helper()
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "vn", Type: catalog.TypeInt, Length: 8},
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "n", Type: catalog.TypeInt, Length: 8},
		{Name: "i", Type: catalog.TypeInt, Length: 8},
		{Name: "d", Type: catalog.TypeDate, Length: 8},
		{Name: "b", Type: catalog.TypeBool, Length: 1},
		{Name: "pre_i", Type: catalog.TypeInt, Length: 8},
		{Name: "pre_d", Type: catalog.TypeDate, Length: 8},
		{Name: "pre_b", Type: catalog.TypeBool, Length: 1},
	})
	heap, err := storage.NewHeap("t", len(schema.Columns), 64, 64*kernelSlots, storage.NewBufferPool(64))
	if err != nil {
		t.Fatal(err)
	}
	image := []storage.Imaged{{Off: 1, Kind: catalog.TypeInt}, {Off: 2, Kind: catalog.TypeInt},
		{Off: 3, Kind: catalog.TypeInt}, {Off: 4, Kind: catalog.TypeDate}, {Off: 5, Kind: catalog.TypeBool}}
	if err := heap.SetSummariser(func(tu catalog.Tuple) (int64, bool) { return tu[0].Int(), false }, image); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(pool []catalog.Value) catalog.Value { return pool[rng.Intn(len(pool))] }
	ints, dates, bools := storedInts, storedDates, storedBools
	if typed {
		ints, dates, bools = typedOnly(storedInts, catalog.TypeInt), typedOnly(storedDates, catalog.TypeDate), typedOnly(storedBools, catalog.TypeBool)
	}
	newRow := func(r int, vn int64) catalog.Tuple {
		return catalog.Tuple{catalog.NewInt(vn), pick(ints), catalog.NewInt(int64(r % 10)),
			pick(ints), pick(dates), pick(bools),
			pick(storedInts), pick(storedDates), pick(storedBools)}
	}
	rows := 12 * kernelSlots
	if typed {
		rows += 5
	}
	for r := 0; r < rows; r++ {
		vn := int64(1)
		if pg := r / kernelSlots; pg >= 8 || pg >= 4 && rng.Intn(4) == 0 {
			vn = 5
		}
		row := newRow(r, vn)
		switch {
		case !typed:
		case r == 1*kernelSlots+3:
			row[3] = catalog.Null
		case r == 2*kernelSlots+4:
			row[4] = catalog.Null
		case r == 2*kernelSlots+9:
			row[1] = catalog.NewFloat(3)
		case r == 10*kernelSlots+6:
			row[1] = catalog.NewFloat(5)
		}
		switch {
		case !poison:
		case r == 3*kernelSlots+5 || r == 9*kernelSlots+2:
			// Values that fail every comparison with their column's
			// type: on a page clean at 1 and 5, and on one dirty below 5.
			row[3], row[4], row[5] = catalog.NewString("x"), catalog.NewInt(3), catalog.NewInt(1)
		case r == 3*kernelSlots+1:
			// A value SUM fails on, before the failing comparisons.
			row[2] = catalog.NewString("y")
		}
		if _, err := heap.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if typed {
		// Free the NULL on page 1, the FLOAT on page 2 and one tuple of
		// page 6, then reuse the three slots, each at its old version.
		freed := map[storage.RID]int64{}
		for _, r := range []int{1*kernelSlots + 3, 2*kernelSlots + 9, 6 * kernelSlots} {
			rid := storage.RID{Page: r / kernelSlots, Slot: r % kernelSlots}
			old, err := heap.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			if err := heap.Delete(rid); err != nil {
				t.Fatal(err)
			}
			freed[rid] = old[0].Int()
		}
		for r := 0; r < len(freed); r++ {
			rid, err := heap.Insert(newRow(r, 1))
			if err != nil {
				t.Fatal(err)
			}
			vn, ok := freed[rid]
			if !ok {
				t.Fatalf("insert went to %v, not to a freed slot", rid)
			}
			if err := heap.Update(rid, newRow(r, vn)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mt := &memTable{schema: schema}
	heap.Scan(func(_ storage.RID, tu catalog.Tuple) bool {
		mt.rows = append(mt.rows, tu)
		return true
	})
	return &heapTable{schema: schema, heap: heap}, mt, &CompileOptions{
		Slots: [][]int{{1, 2, 3, 4, 5}, {1, 2, 6, 7, 8}},
		Select: func(row catalog.Tuple, cut int64) (int, bool) {
			if cut >= row[0].Int() {
				return 0, true
			}
			return 1, true
		},
	}
}

// typedOnly returns the values of pool that are of kind typ.
func typedOnly(pool []catalog.Value, typ catalog.Type) []catalog.Value {
	var out []catalog.Value
	for _, v := range pool {
		if v.Kind() == typ {
			out = append(out, v)
		}
	}
	return out
}

var (
	big         = int64(1) << 53
	kernelDate  = catalog.NewDate(9783) // 10/14/96
	storedInts  = []catalog.Value{catalog.Null, catalog.NewInt(-7), catalog.NewInt(-1), catalog.NewInt(0), catalog.NewInt(3), catalog.NewInt(5), catalog.NewInt(big), catalog.NewInt(big + 1), catalog.NewInt(3), catalog.NewInt(big), catalog.NewFloat(3)}
	storedDates = []catalog.Value{catalog.Null, catalog.NewDate(9781), catalog.NewDate(9782), kernelDate, catalog.NewDate(9784), kernelDate, catalog.NewString("10/14/96")}
	storedBools = []catalog.Value{catalog.Null, catalog.NewBool(true), catalog.NewBool(false), catalog.NewBool(true)}
)

// kernelOperand returns an operand value for a comparison with a column of
// type typ: one of that type when typed is set, else one from a pool that
// also holds NULL and values of other kinds — FLOAT and STRING for an INT,
// a date string and an INT for a DATE, an INT for a BOOL.
func kernelOperand(rng *rand.Rand, typ catalog.Type, typed bool) catalog.Value {
	var ok, off []catalog.Value
	switch typ {
	case catalog.TypeInt:
		ok = []catalog.Value{catalog.NewInt(-7), catalog.NewInt(0), catalog.NewInt(3), catalog.NewInt(5), catalog.NewInt(big), catalog.NewInt(big + 1), catalog.NewInt(math.MinInt64), catalog.NewInt(math.MaxInt64)}
		off = []catalog.Value{catalog.Null, catalog.NewFloat(3), catalog.NewFloat(2.5), catalog.NewString("abc")}
	case catalog.TypeDate:
		ok = []catalog.Value{catalog.NewDate(9782), kernelDate, catalog.NewDate(9784)}
		off = []catalog.Value{catalog.Null, catalog.NewString("10/14/96"), catalog.NewInt(3)}
	default:
		ok = []catalog.Value{catalog.NewBool(true), catalog.NewBool(false)}
		off = []catalog.Value{catalog.Null, catalog.NewInt(1)}
	}
	if typed || rng.Intn(3) != 0 {
		return ok[rng.Intn(len(ok))]
	}
	return off[rng.Intn(len(off))]
}

// The kernel is pinned to the per-tuple closure and to the tree-walker, rows
// and errors, over every shape it compiles: the six operators, the column on
// the left and on the right, literal and parameter operands, AND chains of
// one to three comparisons, over INT (unversioned and versioned), DATE and
// BOOL columns (kernelTable). Parameters are bound to values of the
// column's type, to NULL, to values of other kinds, or not at all. Each
// WHERE runs in a scan and in an aggregate, at versions where every page,
// some pages or no page is clean, on a table whose values all compare and on
// one where some tuples fail: the first error in slot order must be the one
// reported. The plan (with its kernel) and the plan stripped of its kernel
// (clean pages then run the closure page by page) must answer as the plan
// does over the same tuples in a table with no clean page — the per-tuple
// closure — and all three as the tree-walker over the table materialized at
// the reader's version. The tree-walker filters every row before it folds
// one, so it is not asked which error comes first when a SUM fails before a
// comparison does.
func TestCleanPageKernelMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cols := []struct {
		name string
		typ  catalog.Type
	}{{"k", catalog.TypeInt}, {"i", catalog.TypeInt}, {"d", catalog.TypeDate}, {"b", catalog.TypeBool}}
	ops := []sql.BinaryOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}

	// term returns conjunct j: the column on either side, against a literal
	// or the parameter pj. typed keeps a literal of the column's type.
	type shape struct {
		where sql.Expr
		types []catalog.Type // of each conjunct's parameter, pj
	}
	term := func(j, c int, op sql.BinaryOp, left, param, typed bool) (sql.Expr, catalog.Type) {
		col := &sql.ColumnRef{Name: cols[c].name}
		var other sql.Expr = &sql.Literal{Value: kernelOperand(rng, cols[c].typ, typed)}
		if param {
			other = &sql.Param{Name: fmt.Sprintf("p%d", j)}
		}
		if left {
			return &sql.BinaryExpr{Op: op, L: col, R: other}, cols[c].typ
		}
		return &sql.BinaryExpr{Op: op, L: other, R: col}, cols[c].typ
	}
	var shapes []shape
	for c := range cols {
		for _, op := range ops {
			for _, left := range []bool{true, false} {
				for _, param := range []bool{true, false} {
					e, typ := term(0, c, op, left, param, true)
					shapes = append(shapes, shape{e, []catalog.Type{typ}})
				}
			}
		}
	}
	for n := 2; n <= 3; n++ {
		for s := 0; s < 48; s++ {
			var sh shape
			for j := 0; j < n; j++ {
				e, typ := term(j, rng.Intn(len(cols)), ops[rng.Intn(len(ops))], rng.Intn(2) == 0, rng.Intn(2) == 0, false)
				sh.types = append(sh.types, typ)
				if sh.where == nil {
					sh.where = e
				} else {
					sh.where = &sql.BinaryExpr{Op: sql.OpAnd, L: sh.where, R: e}
				}
			}
			shapes = append(shapes, sh)
		}
	}

	runs, typed, cleanPages, imagePages := 0, 0, 0, 0
	for _, fixture := range []struct{ poison, typed bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		poison := fixture.poison
		ht, mt, opts := kernelTable(t, 7, poison, fixture.typed)
		heapCat, memCat := memCatalog2{"t": ht}, memCatalog{"t": mt}
		for _, sh := range shapes {
			scan := mustSelect(t, `SELECT k, i, d, b FROM t`)
			agg := mustSelect(t, `SELECT COUNT(*), SUM(n), MIN(k), MAX(i) FROM t`)
			scan.Where, agg.Where = sh.where, sh.where
			// Bindings: every parameter of its column's type, then three
			// drawn from the wider pool, where one in eight is unbound.
			var bindings []Params
			for b := 0; b < 4; b++ {
				params := Params{}
				for j, typ := range sh.types {
					if b > 0 && rng.Intn(8) == 0 {
						continue
					}
					params[fmt.Sprintf("p%d", j)] = kernelOperand(rng, typ, b == 0)
				}
				bindings = append(bindings, params)
			}
			for _, stmt := range []*sql.SelectStmt{scan, agg} {
				pl, err := CompileSelect(heapCat, stmt, opts)
				if err != nil || !pl.Vectorized() || !pl.Kernel() {
					t.Fatalf("%s: not compiled to a kernel (%v)", sql.Print(stmt), err)
				}
				closure := *pl
				closure.kernel = nil
				for _, params := range bindings {
					for _, cut := range []int64{0, 1, 5} {
						what := fmt.Sprintf("%+v cut=%d %s %v", fixture, cut, sql.Print(stmt), params)
						bound := pl.kernel.bind(pl.comp.newCtx(params, cut))
						if bound.n > 0 {
							typed++
						}
						// imaged reports whether the bound kernel finds an
						// image of every column it reads on v.
						imaged := func(v storage.PageView) bool {
							for _, b := range bound.b[:bound.n] {
								if v.Ints(int(b.off), b.typ) == nil {
									return false
								}
							}
							return bound.n > 0
						}
						want, werr := executeAt(pl, memCat, params, cut)
						outcomes := map[string]func() (*Rows, error){
							"kernel": func() (*Rows, error) {
								if fixture.typed {
									ht.onPage = func(v storage.PageView) {
										if !v.Clean() {
											return
										}
										cleanPages++
										if imaged(v) {
											imagePages++
										}
									}
									defer func() { ht.onPage = nil }()
								}
								return executeAt(pl, heapCat, params, cut)
							},
							"closure": func() (*Rows, error) { return executeAt(&closure, heapCat, params, cut) },
						}
						if !poison || stmt == scan {
							outcomes["tree-walker"] = func() (*Rows, error) {
								return Select(memCatalog{"t": asOf(mt, opts, cut)}, stmt, params)
							}
						}
						for name, run := range outcomes {
							got, gerr := run()
							if fmt.Sprint(gerr) != fmt.Sprint(werr) {
								t.Fatalf("%s: %s err %v, per-tuple err %v", what, name, gerr, werr)
							}
							if werr == nil && fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
								t.Fatalf("%s: %s diverged\n%s: %v\nper-tuple: %v", what, name, name, got.Tuples, want.Tuples)
							}
						}
						runs++
					}
				}
			}
		}
	}
	if typed < runs/4 {
		t.Fatalf("only %d of %d executions bound their kernel to typed operands", typed, runs)
	}
	if imagePages < cleanPages/3 {
		t.Fatalf("the kernel decided %d of the typed fixtures' %d clean pages from their image: want at least a third", imagePages, cleanPages)
	}
	t.Logf("%d WHEREs, %d executions agree, %d on the typed path; %d of %d clean pages of the typed fixtures decided from their image", len(shapes), runs, typed, imagePages, cleanPages)
}

// countingTable counts what a scan of its heap decides: pages through the
// hook, how many of them were clean and how many of those offered the image
// of n, the column the kernel below reads; tuples through the predicate,
// which no page of a summarised heap reaches; and blocks of tuples the
// walker copied out to the scan's callback.
type countingTable struct {
	*heapTable
	pages, clean, imaged, tuples, blocks int
}

func (c *countingTable) ScanFilter(f storage.Filter, fn func([]storageRID, []catalog.Tuple) bool) error {
	pred, page := f.Pred, f.Page
	f.Pred = func(t catalog.Tuple) (bool, error) { c.tuples++; return pred(t) }
	f.Page = func(v storage.PageView, sel []int32) ([]int32, error) {
		c.pages++
		if v.Clean() {
			c.clean++
			if v.Ints(2, catalog.TypeInt) != nil {
				c.imaged++
			}
		}
		return page(v, sel)
	}
	return c.heapTable.ScanFilter(f, func(rids []storageRID, tuples []catalog.Tuple) bool {
		c.blocks++
		return fn(rids, tuples)
	})
}

// A LIMIT reached in the middle of a page returns exactly LIMIT rows, ends
// the walk there, and reports no error: on a page clean at the reader's
// version whose image the kernel decides, on one the WHERE's closure decides
// (n + 0 has no kernel form), and on a dirty page, whose tuples are read one
// by one through the slot selector. kernelTable's first page holds n = 0 …
// 9, 0 … 5, so the third row ends the scan at slot 2. Every page goes to the
// page hook, none to the predicate, and every survivor is projected in
// place: the walker hands the scan no tuple. The rows are the first three of
// the same statement over a table with no clean page.
func TestPlanLimitStopsMidPage(t *testing.T) {
	ht, mt, opts := kernelTable(t, 7, false, true)
	for _, c := range []struct {
		name, where          string
		cut                  int64
		kernel               bool
		pages, clean, imaged int
	}{
		{"clean-kernel", "n < 9", 5, true, 1, 1, 1},
		{"clean-closure", "n + 0 < 9", 5, false, 1, 1, 1},
		{"dirty", "n < 9", 0, true, 1, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			ct := &countingTable{heapTable: ht}
			stmt := mustSelect(t, `SELECT k, n, i FROM t WHERE `+c.where+` LIMIT 3`)
			pl, err := CompileSelect(memCatalog2{"t": ct}, stmt, opts)
			if err != nil || !pl.Vectorized() || pl.Kernel() != c.kernel {
				t.Fatalf("compiled=%v kernel=%v (%v); want a compiled plan, kernel %v", pl.Vectorized(), pl.Kernel(), err, c.kernel)
			}
			got, err := executeAt(pl, memCatalog2{"t": ct}, nil, c.cut)
			if err != nil {
				t.Fatalf("err = %v, want none", err)
			}
			want, err := executeAt(pl, memCatalog{"t": mt}, nil, c.cut)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Tuples) != 3 || fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
				t.Errorf("rows %v, want %v", got.Tuples, want.Tuples)
			}
			if ct.pages != c.pages || ct.clean != c.clean || ct.imaged != c.imaged || ct.tuples != 0 || ct.blocks != 0 {
				t.Errorf("the scan decided %d pages (%d clean, %d imaged) and %d tuples through the predicate, and was handed %d blocks; want %d (%d, %d), none and none",
					ct.pages, ct.clean, ct.imaged, ct.tuples, ct.blocks, c.pages, c.clean, c.imaged)
			}
		})
	}
}
