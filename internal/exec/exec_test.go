package exec

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
)

// storageRID aliases the engine RID for the in-memory test table.
type storageRID = storage.RID

// evalStr evaluates a standalone expression over an optional single-row
// environment.
func evalStr(t *testing.T, expr string, params Params) (catalog.Value, error) {
	t.Helper()
	e, err := sql.ParseExpr(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return EvalConst(e, params)
}

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want catalog.Value
	}{
		{"1 + 2 * 3", catalog.NewInt(7)},
		{"(1 + 2) * 3", catalog.NewInt(9)},
		{"10 / 4", catalog.NewInt(2)}, // integer division
		{"10.0 / 4", catalog.NewFloat(2.5)},
		{"-5 + 3", catalog.NewInt(-2)},
		{"2 * 3.5", catalog.NewFloat(7)},
		{"1 + NULL", catalog.Null},
		{"ABS(-3)", catalog.NewInt(3)},
		{"ABS(-3.5)", catalog.NewFloat(3.5)},
		{"COALESCE(NULL, NULL, 4)", catalog.NewInt(4)},
		{"COALESCE(NULL, NULL)", catalog.Null},
		{"LENGTH('abc')", catalog.NewInt(3)},
		{"UPPER('ab')", catalog.NewString("AB")},
		{"LOWER('AB')", catalog.NewString("ab")},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.expr, nil)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		if !catalog.Equal(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestEvalComparisonAndLogic(t *testing.T) {
	cases := []struct {
		expr string
		want string // "true", "false", "null"
	}{
		{"1 < 2", "true"},
		{"2 <= 2", "true"},
		{"3 <> 3", "false"},
		{"'a' < 'b'", "true"},
		{"NULL = NULL", "null"},
		{"1 < NULL", "null"},
		{"TRUE AND FALSE", "false"},
		{"TRUE OR FALSE", "true"},
		{"NOT TRUE", "false"},
		{"NOT NULL", "null"},
		// Three-valued logic corner cases.
		{"NULL AND FALSE", "false"},
		{"NULL AND TRUE", "null"},
		{"NULL OR TRUE", "true"},
		{"NULL OR FALSE", "null"},
		{"1 IS NULL", "false"},
		{"NULL IS NULL", "true"},
		{"NULL IS NOT NULL", "false"},
		{"2 IN (1, 2, 3)", "true"},
		{"4 IN (1, 2, 3)", "false"},
		{"4 IN (1, NULL)", "null"},
		{"4 NOT IN (1, 2)", "true"},
		{"2 BETWEEN 1 AND 3", "true"},
		{"0 BETWEEN 1 AND 3", "false"},
		{"0 NOT BETWEEN 1 AND 3", "true"},
		{"NULL BETWEEN 1 AND 3", "null"},
		{"CASE WHEN 1 = 1 THEN TRUE ELSE FALSE END", "true"},
		{"CASE WHEN 1 = 2 THEN TRUE END", "null"},
		{"CASE WHEN NULL THEN TRUE ELSE FALSE END", "false"},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.expr, nil)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		var s string
		switch {
		case got.IsNull():
			s = "null"
		case got.Kind() == catalog.TypeBool && got.Bool():
			s = "true"
		default:
			s = "false"
		}
		if s != c.want {
			t.Errorf("%s = %s, want %s", c.expr, s, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		"1 / 0",
		"1.0 / 0",
		"'a' + 1",
		"1 < 'a'",
		"NOT 5",
		"-'x'",
		"NOSUCHFUNC(1)",
		"ABS(1, 2)",
		"SUM(1)", // aggregate outside aggregation context
	}
	for _, expr := range bad {
		if _, err := evalStr(t, expr, nil); err == nil {
			t.Errorf("%s: expected error", expr)
		}
	}
	// Unbound parameter.
	if _, err := evalStr(t, ":x + 1", nil); !errors.Is(err, ErrUnboundParam) {
		t.Errorf("unbound param: %v", err)
	}
	v, err := evalStr(t, ":x + 1", Params{"x": catalog.NewInt(2)})
	if err != nil || v.Int() != 3 {
		t.Errorf("bound param: %v %v", v, err)
	}
}

func TestRowEval(t *testing.T) {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Length: 8},
		{Name: "b", Type: catalog.TypeString, Length: 8},
	})
	re := NewRowEval("t", schema, Params{"p": catalog.NewInt(10)})
	row := catalog.Tuple{catalog.NewInt(5), catalog.NewString("x")}
	e, _ := sql.ParseExpr("a + :p")
	v, err := re.Value(e, row)
	if err != nil || v.Int() != 15 {
		t.Errorf("Value = %v %v", v, err)
	}
	// Qualified reference.
	e, _ = sql.ParseExpr("t.a = 5 AND b = 'x'")
	ok, err := re.Truthy(e, row)
	if err != nil || !ok {
		t.Errorf("Truthy = %v %v", ok, err)
	}
	e, _ = sql.ParseExpr("nope = 1")
	if _, err := re.Value(e, row); err == nil {
		t.Error("unknown column accepted")
	}
	e, _ = sql.ParseExpr("u.a = 1")
	if _, err := re.Value(e, row); err == nil {
		t.Error("wrong qualifier accepted")
	}
}

// TestDateStringComparison: the compare helper coerces strings to dates so
// the paper's `date = "10/14/96"` predicates work.
func TestDateStringComparison(t *testing.T) {
	schema := catalog.MustSchema("t", []catalog.Column{{Name: "d", Type: catalog.TypeDate, Length: 4}})
	re := NewRowEval("t", schema, nil)
	d, _ := catalog.ParseDate("10/14/96")
	row := catalog.Tuple{d}
	e, _ := sql.ParseExpr("d = '10/14/96'")
	ok, err := re.Truthy(e, row)
	if err != nil || !ok {
		t.Errorf("date = string: %v %v", ok, err)
	}
	e, _ = sql.ParseExpr("'10/15/96' > d")
	ok, err = re.Truthy(e, row)
	if err != nil || !ok {
		t.Errorf("string > date: %v %v", ok, err)
	}
}

// TestIntArithmeticProperty cross-checks the evaluator's integer arithmetic
// against Go's.
func TestIntArithmeticProperty(t *testing.T) {
	f := func(a, b int32) bool {
		e := &sql.BinaryExpr{Op: sql.OpAdd,
			L: &sql.Literal{Value: catalog.NewInt(int64(a))},
			R: &sql.BinaryExpr{Op: sql.OpMul,
				L: &sql.Literal{Value: catalog.NewInt(int64(b))},
				R: &sql.Literal{Value: catalog.NewInt(3)}}}
		v, err := EvalConst(e, nil)
		return err == nil && v.Int() == int64(a)+int64(b)*3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsAggregate(t *testing.T) {
	for _, a := range []string{"SUM", "COUNT", "AVG", "MIN", "MAX"} {
		if !IsAggregate(a) {
			t.Errorf("%s not recognized", a)
		}
	}
	if IsAggregate("ABS") || IsAggregate("sum") {
		t.Error("IsAggregate too permissive (expects upper-case aggregate names only)")
	}
}

// memTable is a minimal in-memory Table for executor-only tests.
type memTable struct {
	schema *catalog.Schema
	rows   []catalog.Tuple
}

func (m *memTable) Schema() *catalog.Schema { return m.schema }
func (m *memTable) Scan(fn func(rid storageRID, t catalog.Tuple) bool) {
	for i, r := range m.rows {
		if r == nil {
			continue
		}
		if !fn(storageRID{Page: 0, Slot: i}, r.Clone()) {
			return
		}
	}
}

// memPage is how many rows memTable.ScanFilter treats as one page.
const memPage = 100

// ScanFilter mimics the heap's page walker: survivors are delivered a page
// at a time in slices the next page overwrites. It keeps no version
// summary, so it calls no page clean and f.Pred decides every row.
func (m *memTable) ScanFilter(f storage.Filter, fn func([]storageRID, []catalog.Tuple) bool) error {
	var rids []storageRID
	var tuples []catalog.Tuple
	for start := 0; start < len(m.rows); start += memPage {
		rids, tuples = rids[:0], tuples[:0]
		for i := start; i < min(start+memPage, len(m.rows)); i++ {
			r := m.rows[i]
			if r == nil {
				continue
			}
			keep := true
			if f.Pred != nil {
				var err error
				if keep, err = f.Pred(r); err != nil {
					return err
				}
			}
			if keep {
				rids = append(rids, storageRID{Slot: i})
				tuples = append(tuples, r.Clone())
			}
		}
		if len(tuples) > 0 && !fn(rids, tuples) {
			return nil
		}
	}
	return nil
}
func (m *memTable) Get(rid storageRID) (catalog.Tuple, error) {
	if rid.Slot >= len(m.rows) || m.rows[rid.Slot] == nil {
		return nil, errors.New("missing")
	}
	return m.rows[rid.Slot].Clone(), nil
}
func (m *memTable) Insert(t catalog.Tuple) (storageRID, error) {
	m.rows = append(m.rows, t.Clone())
	return storageRID{Slot: len(m.rows) - 1}, nil
}
func (m *memTable) Update(rid storageRID, t catalog.Tuple) error {
	m.rows[rid.Slot] = t.Clone()
	return nil
}
func (m *memTable) Delete(rid storageRID) error {
	m.rows[rid.Slot] = nil
	return nil
}

type memCatalog map[string]*memTable

func (c memCatalog) Table(name string) (Table, error) {
	t, ok := c[strings.ToLower(name)]
	if !ok {
		return nil, errors.New("no such table " + name)
	}
	return t, nil
}

// TestExecutorOverCustomTable proves the executor runs against any Table
// implementation — the property the 2VNL layer and the baselines rely on.
func TestExecutorOverCustomTable(t *testing.T) {
	schema := catalog.MustSchema("t", []catalog.Column{
		{Name: "g", Type: catalog.TypeString, Length: 4},
		{Name: "v", Type: catalog.TypeInt, Length: 8},
	})
	mt := &memTable{schema: schema}
	for i := 0; i < 10; i++ {
		g := "a"
		if i%2 == 1 {
			g = "b"
		}
		mt.rows = append(mt.rows, catalog.Tuple{catalog.NewString(g), catalog.NewInt(int64(i))})
	}
	cat := memCatalog{"t": mt}
	sel, err := sql.ParseSelect(`SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g ORDER BY g`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Select(cat, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Tuples[0][1].Int() != 20 || rows.Tuples[1][1].Int() != 25 {
		t.Errorf("custom-table aggregation:\n%s", rows)
	}
	// DML through the interface.
	upd, _ := sql.Parse(`UPDATE t SET v = v + 100 WHERE g = 'a'`)
	n, err := Update(cat, upd.(*sql.UpdateStmt), nil)
	if err != nil || n != 5 {
		t.Fatalf("update: %d %v", n, err)
	}
	del, _ := sql.Parse(`DELETE FROM t WHERE g = 'b'`)
	n, err = Delete(cat, del.(*sql.DeleteStmt), nil)
	if err != nil || n != 5 {
		t.Fatalf("delete: %d %v", n, err)
	}
	ins, _ := sql.Parse(`INSERT INTO t VALUES ('c', 1)`)
	n, err = Insert(cat, ins.(*sql.InsertStmt), nil)
	if err != nil || n != 1 {
		t.Fatalf("insert: %d %v", n, err)
	}
	rows, _ = Select(cat, mustSelect(t, `SELECT COUNT(*), SUM(v) FROM t`), nil)
	if rows.Tuples[0][0].Int() != 6 || rows.Tuples[0][1].Int() != 520+1 {
		t.Errorf("final: %v", rows.Tuples[0])
	}
}

func mustSelect(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	s, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
