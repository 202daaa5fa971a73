package core

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// Column-name conventions for the schema extension (§3.1). For n = 2 the
// names match the paper exactly: tupleVN, operation, pre_<attr>. For n > 2
// the version slots are numbered: tupleVN1..tupleVN<n-1>, operation1.., and
// pre1_<attr>.. (§5, Figure 7).
const (
	colTupleVN   = "tupleVN"
	colOperation = "operation"
	preBase      = "pre"
	// tupleVNBytes and operationBytes are the storage footprints of the
	// bookkeeping columns, matching Figure 3 (tupleVN 4 bytes, operation 1
	// byte).
	tupleVNBytes   = 4
	operationBytes = 1
)

// Layout describes where the version bookkeeping lives inside an extended
// tuple: for each version slot j (1-based, 1..n−1), the positions of
// tupleVNj, operationj, and the pre-update copies of the updatable
// attributes; plus where the base attributes sit.
type Layout struct {
	// N is the number of logically available versions (2 for 2VNL).
	N int
	// BaseStart is the index of the first base attribute; base attributes
	// are contiguous.
	BaseStart int
	// BaseLen is the number of base attributes.
	BaseLen int
	// Upd holds base-relative indexes of the updatable attributes, in
	// schema order.
	Upd []int
	// TVN[j-1] is the extended-tuple index of tupleVNj.
	TVN []int
	// OpCol[j-1] is the extended-tuple index of operationj.
	OpCol []int
	// Pre[j-1][k] is the extended-tuple index of the slot-j pre-update
	// copy of the k-th updatable attribute.
	Pre [][]int
	// Off[j][i] is the extended-tuple index of base attribute i as a reader
	// of version slot j sees it (ExtTable.Slot): slot 0 is the current
	// values, slot j ≥ 1 the slot-j pre-update copies of the updatable
	// attributes beside the current values of the others.
	Off [][]int
}

// ExtTable couples a base schema with its 2VNL/nVNL extension.
type ExtTable struct {
	// Base is the relation schema as the warehouse user declared it.
	Base *catalog.Schema
	// Ext is the extended physical schema stored in the engine.
	Ext *catalog.Schema
	// L locates the bookkeeping columns.
	L Layout
}

// slotColNames returns the tupleVN/operation column names for slot j under
// n versions.
func slotColNames(n, j int) (tvn, op string) {
	if n == 2 {
		return colTupleVN, colOperation
	}
	return fmt.Sprintf("%s%d", colTupleVN, j), fmt.Sprintf("%s%d", colOperation, j)
}

// preColName returns the slot-j pre-update column name for base column col
// under n versions.
func preColName(n, j int, col string) string {
	if n == 2 {
		return preBase + "_" + col
	}
	return fmt.Sprintf("%s%d_%s", preBase, j, col)
}

// ExtendSchema builds the 2VNL/nVNL extended schema for a base relation
// (§3.1, §5). The layout is: slot-1 bookkeeping (tupleVN, operation), the
// base attributes, the slot-1 pre-update copies, then — for n > 2 — one
// (tupleVNj, operationj, prej_*) group per additional slot, matching the
// paper's Figure 3 (n = 2) and Figure 7 (n = 4) presentations.
//
// It returns an error if n < 2 or if the base schema already uses a
// reserved column name.
func ExtendSchema(base *catalog.Schema, n int) (*ExtTable, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: need n >= 2 versions, got %d", n)
	}
	reserved := make(map[string]bool)
	for j := 1; j <= n-1; j++ {
		tvn, op := slotColNames(n, j)
		reserved[strings.ToLower(tvn)] = true
		reserved[strings.ToLower(op)] = true
		for _, c := range base.Columns {
			if c.Updatable {
				reserved[strings.ToLower(preColName(n, j, c.Name))] = true
			}
		}
	}
	for _, c := range base.Columns {
		if reserved[strings.ToLower(c.Name)] {
			return nil, fmt.Errorf("core: base column %q collides with a reserved 2VNL column name", c.Name)
		}
	}

	var cols []catalog.Column
	l := Layout{N: n}
	tvn1, op1 := slotColNames(n, 1)
	l.TVN = append(l.TVN, len(cols))
	cols = append(cols, catalog.Column{Name: tvn1, Type: catalog.TypeInt, Length: tupleVNBytes})
	l.OpCol = append(l.OpCol, len(cols))
	cols = append(cols, catalog.Column{Name: op1, Type: catalog.TypeString, Length: operationBytes})

	l.BaseStart = len(cols)
	l.BaseLen = len(base.Columns)
	for i, c := range base.Columns {
		cols = append(cols, c)
		if c.Updatable {
			l.Upd = append(l.Upd, i)
		}
	}
	pre1 := make([]int, 0, len(l.Upd))
	for _, ui := range l.Upd {
		c := base.Columns[ui]
		pre1 = append(pre1, len(cols))
		cols = append(cols, catalog.Column{Name: preColName(n, 1, c.Name), Type: c.Type, Length: c.Length})
	}
	l.Pre = append(l.Pre, pre1)

	for j := 2; j <= n-1; j++ {
		tvnj, opj := slotColNames(n, j)
		l.TVN = append(l.TVN, len(cols))
		cols = append(cols, catalog.Column{Name: tvnj, Type: catalog.TypeInt, Length: tupleVNBytes})
		l.OpCol = append(l.OpCol, len(cols))
		cols = append(cols, catalog.Column{Name: opj, Type: catalog.TypeString, Length: operationBytes})
		prej := make([]int, 0, len(l.Upd))
		for _, ui := range l.Upd {
			c := base.Columns[ui]
			prej = append(prej, len(cols))
			cols = append(cols, catalog.Column{Name: preColName(n, j, c.Name), Type: c.Type, Length: c.Length})
		}
		l.Pre = append(l.Pre, prej)
	}
	for j := 0; j <= n-1; j++ {
		off := make([]int, l.BaseLen)
		for i := range off {
			off[i] = l.BaseStart + i
		}
		if j > 0 {
			for k, ui := range l.Upd {
				off[ui] = l.Pre[j-1][k]
			}
		}
		l.Off = append(l.Off, off)
	}

	ext, err := catalog.NewSchema(base.Name, cols, base.KeyNames()...)
	if err != nil {
		return nil, err
	}
	return &ExtTable{Base: base.Clone(), Ext: ext, L: l}, nil
}

// Overhead reports the storage cost of the extension: base and extended
// bytes per tuple and the relative increase. For the paper's DailySales
// schema this is 42 → 51 bytes, about 21% (Figure 3); for a worst-case
// all-updatable schema it approaches (n−1)×.
func (e *ExtTable) Overhead() (baseBytes, extBytes int, ratio float64) {
	baseBytes = e.Base.RowBytes()
	extBytes = e.Ext.RowBytes()
	return baseBytes, extBytes, float64(extBytes)/float64(baseBytes) - 1
}

// IsUpdatable reports whether base column index i is updatable, and if so
// its ordinal among the updatable columns.
func (e *ExtTable) IsUpdatable(i int) (ord int, ok bool) {
	for k, ui := range e.L.Upd {
		if ui == i {
			return k, true
		}
	}
	return 0, false
}

// Accessors over extended tuples. Slot j is 1-based (1..n−1); slot 1 is the
// most recent modification.

// TupleVN returns tupleVNj of an extended tuple (0 when the slot is unused;
// unused slots never shadow any session because sessions start at VN 1).
func (e *ExtTable) TupleVN(t catalog.Tuple, j int) VN {
	v := t[e.L.TVN[j-1]]
	if v.IsNull() {
		return 0
	}
	return VN(v.Int())
}

// OpAt returns operationj of an extended tuple.
func (e *ExtTable) OpAt(t catalog.Tuple, j int) Op {
	v := t[e.L.OpCol[j-1]]
	if v.IsNull() {
		return OpNone
	}
	return Op(v.Str())
}

// SetSlot writes tupleVNj and operationj.
func (e *ExtTable) SetSlot(t catalog.Tuple, j int, vn VN, op Op) {
	t[e.L.TVN[j-1]] = catalog.NewInt(int64(vn))
	if op == OpNone {
		t[e.L.OpCol[j-1]] = catalog.Null
	} else {
		t[e.L.OpCol[j-1]] = catalog.NewString(string(op))
	}
}

// BaseValues extracts the current (CV) base attribute values.
func (e *ExtTable) BaseValues(t catalog.Tuple) catalog.Tuple {
	out := make(catalog.Tuple, e.L.BaseLen)
	copy(out, t[e.L.BaseStart:e.L.BaseStart+e.L.BaseLen])
	return out
}

// SetBaseValues overwrites the current base attribute values (CV ← vals).
func (e *ExtTable) SetBaseValues(t catalog.Tuple, vals catalog.Tuple) {
	copy(t[e.L.BaseStart:e.L.BaseStart+e.L.BaseLen], vals)
}

// PreValues returns the slot-j pre-update values aligned with the updatable
// columns (k-th entry is the pre-image of the k-th updatable column).
func (e *ExtTable) PreValues(t catalog.Tuple, j int) catalog.Tuple {
	cols := e.L.Pre[j-1]
	out := make(catalog.Tuple, len(cols))
	for k, ci := range cols {
		out[k] = t[ci]
	}
	return out
}

// SetPreValues writes the slot-j pre-update values.
func (e *ExtTable) SetPreValues(t catalog.Tuple, j int, vals catalog.Tuple) {
	cols := e.L.Pre[j-1]
	for k, ci := range cols {
		t[ci] = vals[k]
	}
}

// NullPre returns an all-NULL pre-update vector (for insert operations,
// whose pre-update attributes are null — §3.1).
func (e *ExtTable) NullPre() catalog.Tuple {
	out := make(catalog.Tuple, len(e.L.Upd))
	for i := range out {
		out[i] = catalog.Null
	}
	return out
}

// CurrentUpd extracts the current values of the updatable columns from the
// CV section, aligned like PreValues.
func (e *ExtTable) CurrentUpd(t catalog.Tuple) catalog.Tuple {
	out := make(catalog.Tuple, len(e.L.Upd))
	for k, ui := range e.L.Upd {
		out[k] = t[e.L.BaseStart+ui]
	}
	return out
}

// NewExtTuple builds a fresh extended tuple for a logical insert at vn:
// slot 1 = (vn, insert), CV = base values, every pre-update attribute NULL,
// older slots unused (Table 2, row 3).
func (e *ExtTable) NewExtTuple(base catalog.Tuple, vn VN) catalog.Tuple {
	t := make(catalog.Tuple, len(e.Ext.Columns))
	for i := range t {
		t[i] = catalog.Null
	}
	e.SetSlot(t, 1, vn, OpInsert)
	e.SetBaseValues(t, base)
	for j := 2; j <= e.L.N-1; j++ {
		t[e.L.TVN[j-1]] = catalog.NewInt(0)
	}
	return t
}

// PushBack shifts version slots down by one (slot j's bookkeeping moves to
// slot j+1, the oldest slot falls off), making room for a new slot-1 entry.
// This is the nVNL "push back" of §5; for n = 2 there is nowhere to shift,
// so it is a no-op (slot 1 is simply overwritten by the caller).
func (e *ExtTable) PushBack(t catalog.Tuple) {
	for j := e.L.N - 1; j >= 2; j-- {
		t[e.L.TVN[j-1]] = t[e.L.TVN[j-2]]
		t[e.L.OpCol[j-1]] = t[e.L.OpCol[j-2]]
		for k := range e.L.Pre[j-1] {
			t[e.L.Pre[j-1][k]] = t[e.L.Pre[j-2][k]]
		}
	}
}

// PopFront is the inverse shift of PushBack: slot j+1's bookkeeping moves
// to slot j and the oldest slot is cleared. nVNL needs it for one of the
// cases §5 leaves unenumerated: when a transaction re-inserts over an
// earlier delete (Table 2 row 1, which pushed the history back) and then
// deletes again in the same transaction, the net effect on the tuple is
// nothing — the pushed-back history must be restored, not the tuple
// physically deleted, or concurrent nVNL readers lose versions they are
// still entitled to. The slot dropped by the original PushBack is
// unrecoverable, so the cleared oldest slot means this tuple can no longer
// trigger per-tuple expiration for very old sessions; the global check
// (§4.1) still covers them.
func (e *ExtTable) PopFront(t catalog.Tuple) {
	for j := 1; j <= e.L.N-2; j++ {
		t[e.L.TVN[j-1]] = t[e.L.TVN[j]]
		t[e.L.OpCol[j-1]] = t[e.L.OpCol[j]]
		for k := range e.L.Pre[j-1] {
			t[e.L.Pre[j-1][k]] = t[e.L.Pre[j][k]]
		}
	}
	last := e.L.N - 1
	t[e.L.TVN[last-1]] = catalog.NewInt(0)
	t[e.L.OpCol[last-1]] = catalog.Null
	for k := range e.L.Pre[last-1] {
		t[e.L.Pre[last-1][k]] = catalog.Null
	}
}

// KeyOfBase extracts the unique key from a base tuple.
func (e *ExtTable) KeyOfBase(base catalog.Tuple) catalog.Tuple {
	return e.Base.KeyOf(base)
}
