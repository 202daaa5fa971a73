package catalog

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Type
		str  string
	}{
		{Null, TypeNull, "null"},
		{NewInt(42), TypeInt, "42"},
		{NewFloat(1.5), TypeFloat, "1.5"},
		{NewFloat(10000), TypeFloat, "10000.0"},
		{NewString("San Jose"), TypeString, "San Jose"},
		{NewBool(true), TypeBool, "true"},
		{NewBool(false), TypeBool, "false"},
		{DateFromYMD(1996, 10, 14), TypeDate, "10/14/96"},
	}
	for _, c := range cases {
		if got := c.v.Kind(); got != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, got, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("kind %v: String() = %q, want %q", c.kind, got, c.str)
		}
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("10/14/96")
	if err != nil {
		t.Fatalf("ParseDate: %v", err)
	}
	if got := v.String(); got != "10/14/96" {
		t.Errorf("round trip = %q, want 10/14/96", got)
	}
	iso, err := ParseDate("1996-10-14")
	if err != nil {
		t.Fatalf("ParseDate ISO: %v", err)
	}
	if !Equal(v, iso) {
		t.Errorf("MM/DD/YY and ISO forms disagree: %v vs %v", v, iso)
	}
	if _, err := ParseDate("not a date"); err == nil {
		t.Error("ParseDate accepted garbage")
	}
	// Two-digit years: 96 -> 1996, 05 -> 2005.
	v2, _ := ParseDate("01/01/05")
	if v2.Days() <= v.Days() {
		t.Errorf("expected 01/01/05 (2005) after 10/14/96 (1996)")
	}
}

func TestCompareNulls(t *testing.T) {
	c, err := Compare(Null, NewInt(0))
	if err != nil || c != -1 {
		t.Errorf("Compare(null, 0) = %d, %v; want -1, nil", c, err)
	}
	c, err = Compare(NewString("x"), Null)
	if err != nil || c != 1 {
		t.Errorf("Compare(x, null) = %d, %v; want 1, nil", c, err)
	}
	c, err = Compare(Null, Null)
	if err != nil || c != 0 {
		t.Errorf("Compare(null, null) = %d, %v; want 0, nil", c, err)
	}
}

func TestCompareMixedNumeric(t *testing.T) {
	c, err := Compare(NewInt(3), NewFloat(3.0))
	if err != nil || c != 0 {
		t.Errorf("Compare(3, 3.0) = %d, %v; want 0, nil", c, err)
	}
	c, _ = Compare(NewInt(3), NewFloat(3.5))
	if c != -1 {
		t.Errorf("Compare(3, 3.5) = %d, want -1", c)
	}
	if _, err := Compare(NewInt(3), NewString("3")); err == nil {
		t.Error("Compare(int, string) should error")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	if NewInt(7).Hash() != NewFloat(7).Hash() {
		t.Error("Equal numeric values must hash identically")
	}
	if NewString("a").Hash() == NewString("b").Hash() {
		t.Error("distinct strings should (almost surely) hash differently")
	}
}

func TestHashEqualConsistencyProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		if Equal(va, vb) {
			return va.Hash() == vb.Hash()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := Compare(NewInt(a), NewInt(b))
		c2, err2 := Compare(NewInt(b), NewInt(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewInt(5), TypeFloat)
	if err != nil || v.Kind() != TypeFloat || v.Float() != 5 {
		t.Errorf("Coerce(5, float) = %v, %v", v, err)
	}
	v, err = Coerce(NewFloat(5), TypeInt)
	if err != nil || v.Kind() != TypeInt || v.Int() != 5 {
		t.Errorf("Coerce(5.0, int) = %v, %v", v, err)
	}
	if _, err := Coerce(NewFloat(5.5), TypeInt); err == nil {
		t.Error("Coerce(5.5, int) should fail")
	}
	v, err = Coerce(NewString("10/14/96"), TypeDate)
	if err != nil || v.Kind() != TypeDate {
		t.Errorf("Coerce(string, date) = %v, %v", v, err)
	}
	// NULL coerces to anything.
	v, err = Coerce(Null, TypeInt)
	if err != nil || !v.IsNull() {
		t.Errorf("Coerce(null, int) = %v, %v", v, err)
	}
}

func TestFloatFormatting(t *testing.T) {
	if got := NewFloat(math.Pi).String(); got != "3.141592653589793" {
		t.Errorf("pi formats as %q", got)
	}
}

// Two INTs compare exactly, past float64's 53-bit mantissa; an INT against a
// FLOAT still compares as float64, and Equal values still hash alike.
func TestCompareIntsExactly(t *testing.T) {
	const big = int64(1) << 53
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(big), NewInt(big + 1), -1},
		{NewInt(big + 1), NewInt(big), 1},
		{NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1), 1},
		{NewInt(math.MinInt64), NewInt(math.MinInt64 + 1), -1},
		{NewInt(big + 1), NewFloat(float64(big)), 0},
	}
	for _, c := range cases {
		if got, err := Compare(c.a, c.b); err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
		if Equal(c.a, c.b) && c.a.Hash() != c.b.Hash() {
			t.Errorf("Equal %v and %v hash differently", c.a, c.b)
		}
	}
	if got, _ := CompareTuples(Tuple{NewInt(big)}, Tuple{NewInt(big + 1)}); got != -1 {
		t.Errorf("CompareTuples over 2^53 and 2^53+1 = %d, want -1", got)
	}
}
