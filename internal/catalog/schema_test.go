package catalog

import (
	"strings"
	"testing"
)

// dailySales mirrors the paper's running example (Example 2.1 / Figure 3):
// DailySales(city, state, product_line, date, total_sales) with the group-by
// attributes as key and only total_sales updatable. Column lengths follow
// Figure 3 (base tuple = 42 bytes).
func dailySales(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("DailySales", []Column{
		{Name: "city", Type: TypeString, Length: 20},
		{Name: "state", Type: TypeString, Length: 2},
		{Name: "product_line", Type: TypeString, Length: 12},
		{Name: "date", Type: TypeDate, Length: 4},
		{Name: "total_sales", Type: TypeInt, Length: 4, Updatable: true},
	}, "city", "state", "product_line", "date")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestDailySalesSchema(t *testing.T) {
	s := dailySales(t)
	if got := s.RowBytes(); got != 42 {
		t.Errorf("base DailySales RowBytes = %d, want 42 (Figure 3)", got)
	}
	if !s.HasKey() || len(s.Key) != 4 {
		t.Errorf("key = %v, want the 4 group-by columns", s.Key)
	}
	if got := s.UpdatableIndexes(); len(got) != 1 || got[0] != 4 {
		t.Errorf("UpdatableIndexes = %v, want [4]", got)
	}
}

func TestColIndexCaseInsensitive(t *testing.T) {
	s := dailySales(t)
	if s.ColIndex("CITY") != 0 || s.ColIndex("Total_Sales") != 4 {
		t.Error("ColIndex should be case-insensitive")
	}
	if s.ColIndex("missing") != -1 {
		t.Error("ColIndex(missing) should be -1")
	}
}

func TestNewSchemaRejections(t *testing.T) {
	cols := []Column{{Name: "a", Type: TypeInt, Length: 4}}
	if _, err := NewSchema("", cols); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("t", nil); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a", Type: TypeInt}, {Name: "A", Type: TypeInt}}); err == nil {
		t.Error("duplicate column names accepted")
	}
	if _, err := NewSchema("t", cols, "nope"); err == nil {
		t.Error("bad key column accepted")
	}
	upd := []Column{{Name: "a", Type: TypeInt, Length: 4, Updatable: true}}
	if _, err := NewSchema("t", upd, "a"); err == nil {
		t.Error("updatable key column accepted (paper assumes keys are not updatable)")
	}
}

func TestValidateAndKeyOf(t *testing.T) {
	s := dailySales(t)
	d, _ := ParseDate("10/14/96")
	tup := Tuple{NewString("San Jose"), NewString("CA"), NewString("golf equip"), d, NewInt(10000)}
	v, err := s.Validate(tup)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	key := s.KeyOf(v)
	if len(key) != 4 || key[0].Str() != "San Jose" {
		t.Errorf("KeyOf = %v", key)
	}
	// Arity mismatch.
	if _, err := s.Validate(tup[:3]); err == nil {
		t.Error("short tuple accepted")
	}
	// Coercion: int accepted for float column and vice versa; string date parsed.
	tup2 := Tuple{NewString("x"), NewString("CA"), NewString("y"), NewString("10/15/96"), NewFloat(3)}
	v2, err := s.Validate(tup2)
	if err != nil {
		t.Fatalf("Validate with coercions: %v", err)
	}
	if v2[3].Kind() != TypeDate || v2[4].Kind() != TypeInt {
		t.Errorf("coercions not applied: %v", v2)
	}
	// NULLs pass through.
	tup3 := Tuple{NewString("x"), NewString("CA"), NewString("y"), Null, Null}
	if _, err := s.Validate(tup3); err != nil {
		t.Errorf("NULLs rejected: %v", err)
	}
}

func TestSchemaCloneIndependence(t *testing.T) {
	s := dailySales(t)
	c := s.Clone()
	c.Columns[0].Name = "mutated"
	c.Key[0] = 99
	if s.Columns[0].Name != "city" || s.Key[0] != 0 {
		t.Error("Clone shares state with original")
	}
}

func TestSchemaString(t *testing.T) {
	s := dailySales(t)
	str := s.String()
	for _, want := range []string{"DailySales(", "total_sales INT(4) UPDATABLE", "KEY(city, state, product_line, date)"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestTupleHelpers(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	b := a.Clone()
	b[0] = NewInt(2)
	if a[0].Int() != 1 {
		t.Error("Clone shares storage")
	}
	if !TuplesEqual(a, Tuple{NewInt(1), NewString("x")}) {
		t.Error("TuplesEqual false negative")
	}
	if TuplesEqual(a, b) {
		t.Error("TuplesEqual false positive")
	}
	if TuplesEqual(a, a[:1]) {
		t.Error("TuplesEqual ignored arity")
	}
	c, err := CompareTuples(Tuple{NewInt(1)}, Tuple{NewInt(1), NewInt(0)})
	if err != nil || c != -1 {
		t.Errorf("prefix tuple should sort first: %d, %v", c, err)
	}
	if HashTuple(a) == HashTuple(b) {
		t.Error("distinct tuples should (almost surely) hash differently")
	}
	if HashTuple(a) != HashTuple(Tuple{NewInt(1), NewString("x")}) {
		t.Error("equal tuples must hash identically")
	}
}

// TestValidateCopiesOnlyToCoerce: a tuple that needs no coercion comes back
// as itself, with nothing allocated; one that does comes back as a fresh
// coerced copy, and the input keeps its values.
func TestValidateCopiesOnlyToCoerce(t *testing.T) {
	s := dailySales(t)
	d, _ := ParseDate("10/14/96")
	tup := Tuple{NewString("San Jose"), NewString("CA"), Null, d, NewInt(10000)}
	v, err := s.Validate(tup)
	if err != nil {
		t.Fatal(err)
	}
	if &v[0] != &tup[0] {
		t.Error("Validate copied a tuple that needed no coercion")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = s.Validate(tup) }); n != 0 {
		t.Errorf("Validate of a well-typed tuple allocates %v times, want 0", n)
	}

	in := Tuple{NewString("x"), NewString("CA"), NewString("y"), NewString("10/15/96"), NewFloat(3)}
	orig := in.Clone()
	v, err = s.Validate(in)
	if err != nil {
		t.Fatal(err)
	}
	if &v[0] == &in[0] {
		t.Error("Validate coerced into its input's backing array")
	}
	if !TuplesEqual(in, orig) || in[3].Kind() != TypeString || in[4].Kind() != TypeFloat {
		t.Errorf("Validate modified its input: %v, was %v", in, orig)
	}
	if v[3].Kind() != TypeDate || v[4].Kind() != TypeInt {
		t.Errorf("coercions not applied: %v", v)
	}
}
