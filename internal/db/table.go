// Package db is the embedded relational engine the 2VNL layer runs on: a
// catalog of tables, each backed by a slotted-page heap with a unique key
// index and optional secondary indexes, plus SQL entry points (Exec/Query)
// that parse and run statements through the executor.
//
// The engine deliberately provides no transactional concurrency control of
// its own — only the short page latches and in-place updates of the storage
// layer. That mirrors the paper's deployment story (§4): 2VNL is layered on
// top of an unmodified DBMS, with readers at READ UNCOMMITTED and
// correctness coming from the version columns, while the locking baselines
// in internal/mvcc add their own lock disciplines around this same engine.
package db

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/storage"
)

// ErrDuplicateKey is returned when an insert or update would violate a
// table's unique key.
var ErrDuplicateKey = errors.New("db: duplicate key")

// ErrNoSuchTable is returned for lookups of unknown tables.
var ErrNoSuchTable = errors.New("db: no such table")

// Table is one relation: schema, heap storage, a unique key index when the
// schema declares a key, and optional secondary indexes.
type Table struct {
	schema *catalog.Schema
	heap   *storage.Heap
	// keyIdx indexes the key columns; nil for keyless tables.
	keyIdx *index.Hash

	mu        sync.RWMutex
	secondary map[string]*secondaryIndex
}

type secondaryIndex struct {
	cols []int
	idx  index.Index
}

// Schema implements exec.Table.
func (t *Table) Schema() *catalog.Schema { return t.schema }

// Heap exposes the underlying heap for storage accounting (page and byte
// counts in experiments).
func (t *Table) Heap() *storage.Heap { return t.heap }

// Len returns the number of live tuples.
func (t *Table) Len() int { return t.heap.Len() }

// Scan implements exec.Table.
func (t *Table) Scan(fn func(storage.RID, catalog.Tuple) bool) { t.heap.Scan(fn) }

// ScanFilter implements exec.Table; see storage.Heap.ScanFilter for what f's
// predicates may do under the page latch.
func (t *Table) ScanFilter(f storage.Filter, fn func([]storage.RID, []catalog.Tuple) bool) error {
	return t.heap.ScanFilter(f, fn)
}

// Get implements exec.Table.
func (t *Table) Get(rid storage.RID) (catalog.Tuple, error) { return t.heap.Get(rid) }

// Insert validates the tuple, enforces the unique key, stores the tuple,
// and maintains all indexes. A key conflict returns an error wrapping
// ErrDuplicateKey — the signal the 2VNL insert rewrite (§4.2.1) catches to
// fall into the conflict rows of Table 2.
func (t *Table) Insert(tuple catalog.Tuple) (storage.RID, error) {
	tuple, err := t.schema.Validate(tuple)
	if err != nil {
		return storage.RID{}, err
	}
	rid, err := t.heap.Insert(tuple)
	if err != nil {
		return storage.RID{}, err
	}
	if t.keyIdx != nil {
		key := t.schema.KeyOf(tuple)
		if err := t.keyIdx.Insert(key, rid); err != nil {
			// Roll the heap insert back; under the warehouse's
			// single-writer discipline no reader depends on this tuple.
			_ = t.heap.Delete(rid)
			var dup *index.ErrDuplicateKey
			if errors.As(err, &dup) {
				return storage.RID{}, fmt.Errorf("%w: %s%v", ErrDuplicateKey, t.schema.Name, dup.Key)
			}
			return storage.RID{}, err
		}
	}
	t.insertSecondary(tuple, rid)
	return rid, nil
}

// Update replaces the tuple at rid in place and keeps indexes consistent.
func (t *Table) Update(rid storage.RID, tuple catalog.Tuple) error {
	tuple, err := t.schema.Validate(tuple)
	if err != nil {
		return err
	}
	old, oldKey, err := t.prior(rid, func(cur catalog.Tuple) bool { return !t.sameKey(cur, tuple) })
	if err != nil {
		return err
	}
	if oldKey != nil {
		if err := t.keyIdx.Insert(t.schema.KeyOf(tuple), rid); err != nil {
			var dup *index.ErrDuplicateKey
			if errors.As(err, &dup) {
				return fmt.Errorf("%w: %s%v", ErrDuplicateKey, t.schema.Name, dup.Key)
			}
			return err
		}
		t.keyIdx.Delete(oldKey, rid)
	}
	if err := t.heap.Update(rid, tuple); err != nil {
		return err
	}
	if old != nil {
		t.updateSecondary(old, tuple, rid)
	}
	return nil
}

// Delete removes the tuple at rid and its index entries.
func (t *Table) Delete(rid storage.RID) error {
	old, oldKey, err := t.prior(rid, func(catalog.Tuple) bool { return true })
	if err != nil {
		return err
	}
	if err := t.heap.Delete(rid); err != nil {
		return err
	}
	if oldKey != nil {
		t.keyIdx.Delete(oldKey, rid)
	}
	if old != nil {
		t.deleteSecondary(old, rid)
	}
	return nil
}

// prior reads what Update and Delete need of the tuple at rid before they
// change it. old is a copy of the whole tuple, made only when the table has
// secondary indexes to keep in step. oldKey is the stored key, copied only
// when the table has a key index and needKey, which sees the stored tuple,
// asks for it; without secondary indexes the tuple is read in place, under
// the page's read latch.
func (t *Table) prior(rid storage.RID, needKey func(catalog.Tuple) bool) (old, oldKey catalog.Tuple, err error) {
	read := func(cur catalog.Tuple) {
		if t.keyIdx != nil && needKey(cur) {
			oldKey = t.schema.KeyOf(cur)
		}
	}
	if t.hasSecondary() {
		if old, err = t.heap.Get(rid); err == nil {
			read(old)
		}
		return old, oldKey, err
	}
	err = t.heap.Peek(rid, read)
	return nil, oldKey, err
}

// sameKey reports whether a and b hold equal values in every key column.
func (t *Table) sameKey(a, b catalog.Tuple) bool {
	for _, i := range t.schema.Key {
		if !catalog.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// hasSecondary reports whether the table has a secondary index.
func (t *Table) hasSecondary() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.secondary) > 0
}

// LookupEqual implements exec.IndexedTable: it serves equality predicates
// from the unique key index (when the conjuncts cover every key column) or
// from a secondary index (when they cover its column list). The executor
// re-applies the full WHERE afterwards, so extra conjuncts are fine.
func (t *Table) LookupEqual(cols []string, vals []catalog.Value) ([]storage.RID, bool) {
	match := func(idxCols []int) (catalog.Tuple, bool) {
		key := make(catalog.Tuple, len(idxCols))
		for i, ci := range idxCols {
			name := t.schema.Columns[ci].Name
			found := false
			for j, c := range cols {
				if strings.EqualFold(c, name) {
					v, err := catalog.Coerce(vals[j], t.schema.Columns[ci].Type)
					if err != nil {
						return nil, false
					}
					key[i] = v
					found = true
					break
				}
			}
			if !found {
				return nil, false
			}
		}
		return key, true
	}
	if t.keyIdx != nil {
		if key, ok := match(t.schema.Key); ok {
			return t.keyIdx.Search(key), true
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, si := range t.secondary {
		if key, ok := match(si.cols); ok {
			return si.idx.Search(key), true
		}
	}
	return nil, false
}

// SearchKey returns the RID of the tuple with the given unique key, if any.
// It panics on keyless tables.
func (t *Table) SearchKey(key catalog.Tuple) (storage.RID, bool) {
	if t.keyIdx == nil {
		panic("db: SearchKey on keyless table " + t.schema.Name)
	}
	rids := t.keyIdx.Search(key)
	if len(rids) == 0 {
		return storage.RID{}, false
	}
	return rids[0], true
}

// HasKeyIndex reports whether the table maintains a unique key index.
func (t *Table) HasKeyIndex() bool { return t.keyIdx != nil }

// CreateIndex builds a named secondary index over the given columns. kind
// is "hash" or "btree". Existing tuples are indexed immediately.
func (t *Table) CreateIndex(name, kind string, cols ...string) error {
	idxCols := make([]int, len(cols))
	for i, c := range cols {
		ci := t.schema.ColIndex(c)
		if ci < 0 {
			return fmt.Errorf("db: table %q has no column %q", t.schema.Name, c)
		}
		idxCols[i] = ci
	}
	var ix index.Index
	switch kind {
	case "hash":
		ix = index.NewHash(false)
	case "btree":
		bt, err := index.NewBTree(0, false)
		if err != nil {
			return err
		}
		ix = bt
	default:
		return fmt.Errorf("db: unknown index kind %q", kind)
	}
	t.mu.Lock()
	if t.secondary == nil {
		t.secondary = make(map[string]*secondaryIndex)
	}
	if _, exists := t.secondary[name]; exists {
		t.mu.Unlock()
		return fmt.Errorf("db: index %q already exists on %q", name, t.schema.Name)
	}
	si := &secondaryIndex{cols: idxCols, idx: ix}
	t.secondary[name] = si
	t.mu.Unlock()
	var buildErr error
	t.heap.Scan(func(rid storage.RID, tuple catalog.Tuple) bool {
		if err := ix.Insert(extract(tuple, idxCols), rid); err != nil {
			buildErr = err
			return false
		}
		return true
	})
	return buildErr
}

// IndexLookup searches a named secondary index.
func (t *Table) IndexLookup(name string, key catalog.Tuple) ([]storage.RID, error) {
	t.mu.RLock()
	si := t.secondary[name]
	t.mu.RUnlock()
	if si == nil {
		return nil, fmt.Errorf("db: no index %q on %q", name, t.schema.Name)
	}
	return si.idx.Search(key), nil
}

func extract(tuple catalog.Tuple, cols []int) catalog.Tuple {
	out := make(catalog.Tuple, len(cols))
	for i, c := range cols {
		out[i] = tuple[c]
	}
	return out
}

func (t *Table) insertSecondary(tuple catalog.Tuple, rid storage.RID) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, si := range t.secondary {
		_ = si.idx.Insert(extract(tuple, si.cols), rid)
	}
}

func (t *Table) updateSecondary(old, new catalog.Tuple, rid storage.RID) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, si := range t.secondary {
		ok, nk := extract(old, si.cols), extract(new, si.cols)
		if !catalog.TuplesEqual(ok, nk) {
			si.idx.Delete(ok, rid)
			_ = si.idx.Insert(nk, rid)
		}
	}
}

func (t *Table) deleteSecondary(tuple catalog.Tuple, rid storage.RID) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, si := range t.secondary {
		si.idx.Delete(extract(tuple, si.cols), rid)
	}
}
