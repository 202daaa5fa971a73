package exec

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

func TestExtractEqConjuncts(t *testing.T) {
	params := Params{"p": catalog.NewInt(9)}
	cases := []struct {
		where string
		want  int // number of usable conjuncts
	}{
		{`a = 1`, 1},
		{`1 = a`, 1},
		{`a = 1 AND b = 'x'`, 2},
		{`a = 1 AND b = 'x' AND c > 2`, 2},
		{`a = 1 OR b = 2`, 0},             // OR disqualifies
		{`(a = 1 OR b = 2) AND c = 3`, 1}, // only the AND-ed equality
		{`a = :p`, 1},                     // bound parameter
		{`a = :unbound`, 0},               // unbound parameter unusable
		{`a = b`, 0},                      // column = column unusable
		{`t.a = 5`, 1},                    // qualified by the right binding
		{`u.a = 5`, 0},                    // wrong qualifier
		{`a + 1 = 5`, 0},                  // expression side unusable
		// The rewrite's visibility guard: true only where its result is.
		{`CASE WHEN c > 0 THEN a = 1 AND b = 2 END`, 2},
		{`CASE WHEN c > 0 THEN a = 1 ELSE b = 2 END`, 0},
		{`CASE WHEN a = 1 THEN TRUE END`, 0},
	}
	for _, c := range cases {
		e, err := sql.ParseExpr(c.where)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		lookup := &lookupCols{}
		if _, ok := accessRIDs(lookup, binding{name: "t"}, nil, e, params); ok != (c.want > 0) || len(lookup.cols) != c.want {
			t.Errorf("%s: %d conjuncts (%v), want %d", c.where, len(lookup.cols), lookup.cols, c.want)
		}
	}
}

// lookupCols is an index that records the columns it is asked to look up.
type lookupCols struct {
	Table
	cols []string
}

func (l *lookupCols) LookupEqual(cols []string, _ []catalog.Value) ([]storage.RID, bool) {
	l.cols = cols
	return nil, true
}

// indexedMem wraps memTable with a trivial full-scan "index" to observe the
// access path being taken.
type indexedMem struct {
	*memTable
	lookups int
	serve   bool
}

func (m *indexedMem) LookupEqual(cols []string, vals []catalog.Value) ([]storage.RID, bool) {
	if !m.serve {
		return nil, false
	}
	m.lookups++
	var out []storage.RID
	idx := m.schema.ColIndex(cols[0])
	for i, r := range m.rows {
		if r != nil && catalog.Equal(r[idx], vals[0]) {
			out = append(out, storage.RID{Slot: i})
		}
	}
	return out, true
}

func TestAccessPathUsedForSelectAndDML(t *testing.T) {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Length: 8},
		{Name: "b", Type: catalog.TypeInt, Length: 8},
	})
	mt := &indexedMem{memTable: &memTable{schema: schema}, serve: true}
	for i := int64(0); i < 10; i++ {
		mt.rows = append(mt.rows, catalog.Tuple{catalog.NewInt(i % 3), catalog.NewInt(i)})
	}
	cat := memCatalog2{"t": mt}
	sel, _ := sql.ParseSelect(`SELECT b FROM t WHERE a = 1 AND b < 100`)
	rows, err := Select(cat, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Errorf("rows = %d, want 3 (values with a=1)", rows.Len())
	}
	if mt.lookups != 1 {
		t.Errorf("index lookups = %d, want 1", mt.lookups)
	}
	// DML also routes through the access path.
	upd, _ := sql.Parse(`UPDATE t SET b = 0 WHERE a = 1`)
	n, err := Update(cat, upd.(*sql.UpdateStmt), nil)
	if err != nil || n != 3 {
		t.Fatalf("update: %d %v", n, err)
	}
	if mt.lookups != 2 {
		t.Errorf("lookups after update = %d", mt.lookups)
	}
	// When the table declines, the executor falls back to a scan and still
	// answers correctly.
	mt.serve = false
	rows, err = Select(cat, sel, nil)
	if err != nil || rows.Len() != 3 {
		t.Fatalf("fallback: %v %v", rows, err)
	}
	// Multi-table queries never use the single-table path.
	cat["u"] = &indexedMem{memTable: &memTable{schema: catalog.MustSchema("u", []catalog.Column{
		{Name: "c", Type: catalog.TypeInt, Length: 8}})}, serve: true}
	mt.serve = true
	before := mt.lookups
	join, _ := sql.ParseSelect(`SELECT t.b FROM t, u WHERE a = 1`)
	if _, err := Select(cat, join, nil); err != nil {
		t.Fatal(err)
	}
	if mt.lookups != before {
		t.Error("access path used in a multi-table query")
	}
}

type memCatalog2 map[string]Table

func (c memCatalog2) Table(name string) (Table, error) {
	t, ok := c[name]
	if !ok {
		return nil, errNoTable
	}
	return t, nil
}

var errNoTable = &noTableErr{}

type noTableErr struct{}

func (*noTableErr) Error() string { return "no such table" }

func TestSelectNoFrom(t *testing.T) {
	sel, _ := sql.ParseSelect(`SELECT 1 + 1 AS two, UPPER('x')`)
	rows, err := Select(memCatalog2{}, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Tuples[0][0].Int() != 2 || rows.Tuples[0][1].Str() != "X" {
		t.Errorf("no-from select: %v", rows.Tuples)
	}
	if rows.Columns[0] != "two" {
		t.Errorf("columns: %v", rows.Columns)
	}
	star, _ := sql.ParseSelect(`SELECT *`)
	if _, err := Select(memCatalog2{}, star, nil); err == nil {
		t.Error("SELECT * without FROM accepted")
	}
}
