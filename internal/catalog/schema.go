package catalog

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
//
// Length is the attribute's storage footprint in bytes, used for the storage
// accounting that reproduces Figure 3 of the paper (the extended DailySales
// schema grows from 42 to 51 bytes per tuple). For variable-length columns
// callers set the declared maximum, as the paper does.
//
// Updatable marks attributes whose values a maintenance transaction may
// change in place. The 2VNL schema extension adds a pre-update copy of every
// updatable attribute and of no others (§3.1); for summary tables only the
// aggregate result columns are updatable, which is why the paper's storage
// overhead is small.
type Column struct {
	Name      string
	Type      Type
	Length    int
	Updatable bool
}

// Schema describes a relation: its ordered columns and (optionally) the
// positions of a unique key. For the paper's summary tables the key is the
// set of group-by attributes.
type Schema struct {
	Name    string
	Columns []Column
	// Key holds column indexes forming a unique key, or nil when the
	// relation has no unique key (then Table 2's third row always applies
	// on insert).
	Key []int
}

// NewSchema builds a schema and validates it: non-empty name, unique column
// names, valid key indexes, and no updatable key columns (the paper assumes
// key attributes — group-by attributes in summary tables — are never
// updated).
func NewSchema(name string, cols []Column, keyNames ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: schema needs a name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: schema %q needs at least one column", name)
	}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("catalog: schema %q has an unnamed column", name)
		}
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return nil, fmt.Errorf("catalog: schema %q repeats column %q", name, c.Name)
		}
		seen[lower] = true
	}
	s := &Schema{Name: name, Columns: append([]Column(nil), cols...)}
	for _, kn := range keyNames {
		idx := s.ColIndex(kn)
		if idx < 0 {
			return nil, fmt.Errorf("catalog: schema %q key column %q not found", name, kn)
		}
		if s.Columns[idx].Updatable {
			return nil, fmt.Errorf("catalog: schema %q key column %q must not be updatable", name, kn)
		}
		s.Key = append(s.Key, idx)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and examples.
func MustSchema(name string, cols []Column, keyNames ...string) *Schema {
	s, err := NewSchema(name, cols, keyNames...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColIndex returns the index of the named column (case-insensitive), or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// HasKey reports whether the relation declares a unique key.
func (s *Schema) HasKey() bool { return len(s.Key) > 0 }

// KeyNames returns the names of the key columns in declaration order.
func (s *Schema) KeyNames() []string {
	names := make([]string, len(s.Key))
	for i, idx := range s.Key {
		names[i] = s.Columns[idx].Name
	}
	return names
}

// UpdatableIndexes returns the positions of updatable columns in order.
func (s *Schema) UpdatableIndexes() []int {
	var out []int
	for i, c := range s.Columns {
		if c.Updatable {
			out = append(out, i)
		}
	}
	return out
}

// RowBytes returns the per-tuple storage footprint in bytes, the sum of the
// column lengths. This is the quantity Figure 3 reports (42 bytes for the
// base DailySales schema, 51 after the 2VNL extension).
func (s *Schema) RowBytes() int {
	total := 0
	for _, c := range s.Columns {
		total += c.Length
	}
	return total
}

// KeyOf extracts the key values from a tuple. It panics if the schema has no
// key; callers must check HasKey first.
func (s *Schema) KeyOf(t Tuple) []Value {
	if !s.HasKey() {
		panic("catalog: KeyOf on keyless schema " + s.Name)
	}
	out := make([]Value, len(s.Key))
	for i, idx := range s.Key {
		out[i] = t[idx]
	}
	return out
}

// Validate checks a tuple against the schema: correct arity and, for each
// non-NULL value, a type matching (or coercible to) the column type. When no
// value needs coercion it returns t itself and allocates nothing; otherwise
// it returns a coerced copy. It never modifies t, so a caller that keeps the
// result past t's next change must copy it.
func (s *Schema) Validate(t Tuple) (Tuple, error) {
	if len(t) != len(s.Columns) {
		return nil, fmt.Errorf("catalog: tuple arity %d does not match schema %q arity %d",
			len(t), s.Name, len(s.Columns))
	}
	var out Tuple // the coerced copy, made at the first coercion
	for i, v := range t {
		if v.kind == TypeNull || v.kind == s.Columns[i].Type {
			continue
		}
		cv, err := Coerce(v, s.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("catalog: column %q of %q: %w", s.Columns[i].Name, s.Name, err)
		}
		if out == nil {
			out = t.Clone()
		}
		out[i] = cv
	}
	if out == nil {
		return t, nil
	}
	return out, nil
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	return &Schema{
		Name:    s.Name,
		Columns: append([]Column(nil), s.Columns...),
		Key:     append([]int(nil), s.Key...),
	}
}

// String renders the schema in CREATE TABLE-ish form for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", s.Name)
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s(%d)", c.Name, c.Type, c.Length)
		if c.Updatable {
			b.WriteString(" UPDATABLE")
		}
	}
	if s.HasKey() {
		fmt.Fprintf(&b, ", KEY(%s)", strings.Join(s.KeyNames(), ", "))
	}
	b.WriteString(")")
	return b.String()
}
