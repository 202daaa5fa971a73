// Package catalog defines the value model, column types, schemas, and tuple
// representation shared by every layer of the warehouse engine: the storage
// manager, the SQL executor, the 2VNL rewrite layer, and the multi-version
// baselines.
//
// Values are small immutable structs (no pointers except for strings), so
// tuples can be copied freely; the 2VNL algorithm depends on copying current
// attribute values into pre-update attribute slots.
package catalog

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"
)

// Type identifies the domain of a column or value.
type Type int

// Supported column types. TypeDate is stored as days since 1970-01-01 and
// formatted in the paper's MM/DD/YY style.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
	TypeDate
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOL"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single attribute value. The zero Value is SQL NULL.
type Value struct {
	kind Type
	i    int64 // TypeInt, TypeDate (days since epoch), TypeBool (0/1)
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: TypeInt, i: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: TypeFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: TypeString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: TypeBool, i: i}
}

// NewDate returns a date value from days since 1970-01-01.
func NewDate(days int64) Value { return Value{kind: TypeDate, i: days} }

// DateFromYMD returns a date value for the given calendar day.
func DateFromYMD(year, month, day int) Value {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return NewDate(t.Unix() / 86400)
}

// ParseDate parses the paper's MM/DD/YY format (e.g. "10/14/96") as well as
// ISO YYYY-MM-DD. Two-digit years 70–99 map to 19xx, 00–69 to 20xx.
func ParseDate(s string) (Value, error) {
	if t, err := time.Parse("2006-01-02", s); err == nil {
		return NewDate(t.Unix() / 86400), nil
	}
	if t, err := time.Parse("01/02/06", s); err == nil {
		return NewDate(t.Unix() / 86400), nil
	}
	return Null, fmt.Errorf("catalog: cannot parse date %q", s)
}

// Kind reports the type of the value; NULL values report TypeNull.
func (v Value) Kind() Type { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == TypeNull }

// Int returns the integer payload. It is valid for TypeInt values.
func (v Value) Int() int64 { return v.i }

// Float returns the numeric payload as a float64. It is valid for TypeInt,
// TypeFloat, and TypeDate values (dates convert to their day number).
func (v Value) Float() float64 {
	if v.kind == TypeFloat {
		return v.f
	}
	return float64(v.i)
}

// Str returns the string payload. It is valid for TypeString values.
func (v Value) Str() string { return v.s }

// Bool returns the boolean payload. It is valid for TypeBool values.
func (v Value) Bool() bool { return v.i != 0 }

// Days returns the day number of a TypeDate value.
func (v Value) Days() int64 { return v.i }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.kind == TypeInt || v.kind == TypeFloat }

// String renders the value for display. NULL renders as "null"; dates render
// in the paper's MM/DD/YY format.
func (v Value) String() string {
	switch v.kind {
	case TypeNull:
		return "null"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e15 {
			return strconv.FormatFloat(v.f, 'f', 1, 64)
		}
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case TypeDate:
		return time.Unix(v.i*86400, 0).UTC().Format("01/02/06")
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.kind))
	}
}

// Compare orders two values. NULL sorts before every non-NULL value; two
// NULLs compare equal. Two INTs compare exactly, as int64; numeric values of
// different kinds (int vs float) compare by numeric value, as float64.
// Comparing incomparable kinds (e.g. string vs int) returns an error.
func Compare(a, b Value) (int, error) {
	if a.kind == TypeNull || b.kind == TypeNull {
		switch {
		case a.kind == TypeNull && b.kind == TypeNull:
			return 0, nil
		case a.kind == TypeNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.IsNumeric() && b.IsNumeric() && (a.kind == TypeFloat || b.kind == TypeFloat) {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("catalog: cannot compare %v with %v", a.kind, b.kind)
	}
	switch a.kind {
	case TypeString:
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		default:
			return 0, nil
		}
	case TypeBool, TypeDate, TypeInt:
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("catalog: cannot compare values of kind %v", a.kind)
	}
}

// Equal reports whether two values are identical under Compare semantics,
// with NULL equal only to NULL. Incomparable kinds are unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Hash returns a stable hash of the value, suitable for hash joins, hash
// aggregation, and hash indexes. Values that are Equal hash identically
// (ints and floats holding the same number hash the same).
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	switch v.kind {
	case TypeNull:
		h.Write([]byte{0})
	case TypeString:
		h.Write([]byte{1})
		h.Write([]byte(v.s))
	case TypeBool:
		h.Write([]byte{2, byte(v.i)})
	default:
		// Numeric kinds (and dates) hash by numeric value so that
		// NewInt(3) and NewFloat(3) collide, matching Equal.
		f := v.Float()
		var buf [9]byte
		buf[0] = 3
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Coerce converts v to the target type when a lossless or conventional
// conversion exists (int↔float, string→date). It returns an error otherwise.
func Coerce(v Value, t Type) (Value, error) {
	if v.kind == TypeNull || v.kind == t {
		return v, nil
	}
	switch {
	case t == TypeFloat && v.kind == TypeInt:
		return NewFloat(float64(v.i)), nil
	case t == TypeInt && v.kind == TypeFloat && v.f == math.Trunc(v.f):
		return NewInt(int64(v.f)), nil
	case t == TypeDate && v.kind == TypeString:
		return ParseDate(v.s)
	case t == TypeString && v.kind == TypeDate:
		return NewString(v.String()), nil
	}
	return Null, fmt.Errorf("catalog: cannot coerce %v value %q to %v", v.kind, v.String(), t)
}
