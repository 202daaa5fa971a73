package core

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/storage"
)

// applier is the transaction's sink for the Tables 2–4 physical rewrite:
// it owns the transaction's operation counters and overwritten tombstones,
// while sharing the Maintenance identity (VN, net-effect switch, journal).
// Every write path, single operations and ApplyBatch alike, runs on it, on
// the caller's goroutine.
type applier struct {
	m     *Maintenance
	stats MaintStats
	// tombstones holds each 2VNL delete that a Table 2 row-1 re-insert by
	// this transaction overwrote (2VNL has no back slot to push it into),
	// so that a delete of the re-inserted tuple can restore it, and so
	// that Rollback can tell the re-insert from a fresh one.
	tombstones map[tupleRef]catalog.Tuple
}

// met returns the store's metrics (never nil).
func (a *applier) met() *storeMetrics { return a.m.store.metrics }

// tupleRef names one stored tuple of a versioned relation.
type tupleRef struct {
	vt  *VTable
	rid storage.RID
}

// heapFault returns err, a physical write's error or nil, having poisoned the
// transaction if it is a heap fault: the engine is corrupt, and the
// transaction's earlier writes stand, so Commit must refuse and the caller
// must Rollback. A duplicate key is no heap fault; the table undid its insert.
func (a *applier) heapFault(err error) error {
	if err != nil && !errors.Is(err, db.ErrDuplicateKey) && a.m.broken == nil {
		a.m.broken = err
	}
	return err
}

// injected returns the store's writeFault seam's error for a write of t to vt.
func (s *Store) injected(vt *VTable, t catalog.Tuple) error {
	if s.writeFault == nil {
		return nil
	}
	return s.writeFault(vt, t)
}

// physInsert performs and journals a physical tuple insert. The journal
// record follows the heap change, because an insert learns its RID only from
// the heap.
func (a *applier) physInsert(vt *VTable, ext catalog.Tuple) error {
	if err := a.m.store.injected(vt, ext); err != nil {
		return a.heapFault(err)
	}
	rid, err := vt.tbl.Insert(ext)
	if err != nil {
		return a.heapFault(err)
	}
	if j := a.m.journal; j != nil {
		j.LogInsert(vt.ext.Base.Name, rid, ext)
	}
	vt.noteTupleWrite(ext)
	a.stats.PhysicalInserts++
	a.met().physIns.Inc()
	return nil
}

// physUpdate performs and journals an in-place physical update.
func (a *applier) physUpdate(vt *VTable, rid storage.RID, before, after catalog.Tuple) error {
	if err := a.m.store.injected(vt, after); err != nil {
		return a.heapFault(err)
	}
	if err := vt.tbl.Update(rid, after); err != nil {
		return a.heapFault(err)
	}
	if j := a.m.journal; j != nil {
		j.LogUpdate(vt.ext.Base.Name, rid, before, after)
	}
	vt.noteTupleWrite(after)
	a.stats.PhysicalUpdates++
	a.met().physUpd.Inc()
	return nil
}

// physDelete performs and journals a physical delete.
func (a *applier) physDelete(vt *VTable, rid storage.RID, before catalog.Tuple) error {
	if err := a.m.store.injected(vt, before); err != nil {
		return a.heapFault(err)
	}
	if err := vt.tbl.Delete(rid); err != nil {
		return a.heapFault(err)
	}
	if j := a.m.journal; j != nil {
		j.LogDelete(vt.ext.Base.Name, rid, before)
	}
	vt.noteTupleRemoved(before)
	a.stats.PhysicalDeletes++
	a.met().physDel.Inc()
	return nil
}

// insert performs a logical insert of a base-schema tuple, implementing
// Table 2 (see Maintenance.Insert for the API contract).
func (a *applier) insert(vt *VTable, base catalog.Tuple) error {
	base, err := vt.ext.Base.Validate(base)
	if err != nil {
		return err
	}
	a.stats.LogicalInserts++
	a.met().logicalIns.Inc()
	e := vt.ext
	if e.Base.HasKey() {
		if rid, ext, found, _ := vt.lookupKey(e.KeyOfBase(base)); found {
			return a.insertOnConflict(vt, rid, ext, base)
		}
	}
	// Table 2, row 3: no conflicting tuple.
	ext := e.NewExtTuple(base, a.m.vn)
	if err := a.physInsert(vt, ext); err != nil {
		if errors.Is(err, db.ErrDuplicateKey) {
			return fmt.Errorf("%w: insert of live key %v into %s", ErrInvalidMaintenanceOp, e.KeyOfBase(base), e.Base.Name)
		}
		return err
	}
	a.met().cellT2R3.Inc()
	return nil
}

// insertOnConflict handles Table 2 rows one and two: the key exists
// physically. Valid only when the existing tuple is logically deleted.
func (a *applier) insertOnConflict(vt *VTable, rid storage.RID, ext catalog.Tuple, base catalog.Tuple) error {
	e := vt.ext
	prevOp := e.OpAt(ext, 1)
	tvn := e.TupleVN(ext, 1)
	if prevOp != OpDelete {
		return fmt.Errorf("%w: insert of live key %v into %s (previous operation %s)",
			ErrInvalidMaintenanceOp, e.KeyOfBase(base), e.Base.Name, prevOp)
	}
	t := ext.Clone()
	if tvn < a.m.vn {
		// Row 1: tuple deleted by an earlier transaction. Push the delete
		// back a slot (nVNL), record this slot as an insert with NULL
		// pre-update attributes, and install the new values.
		if e.L.N == 2 {
			if a.tombstones == nil {
				a.tombstones = make(map[tupleRef]catalog.Tuple)
			}
			a.tombstones[tupleRef{vt, rid}] = ext
		}
		e.PushBack(t)
		e.SetSlot(t, 1, a.m.vn, OpInsert)
		e.SetPreValues(t, 1, e.NullPre())
		e.SetBaseValues(t, base)
	} else {
		// Row 2: deleted by this same transaction. Net effect of delete
		// then insert is an update (§3.3); the pre-update attributes
		// already hold the pre-transaction values.
		e.SetBaseValues(t, base)
		op := OpUpdate
		if !a.m.netEffect {
			op = OpInsert // ablation: record the raw operation
		}
		e.SetSlot(t, 1, a.m.vn, op)
		a.stats.NetEffectFolds++
		a.met().netFolds.Inc()
	}
	if err := a.physUpdate(vt, rid, ext, t); err != nil {
		return err
	}
	if tvn < a.m.vn {
		a.met().cellT2R1.Inc()
	} else {
		a.met().cellT2R2.Inc()
	}
	return nil
}

// applyUpdate folds a logical update of one tuple (Table 3). newBase must
// differ from the current values only in updatable attributes.
func (a *applier) applyUpdate(vt *VTable, rid storage.RID, ext catalog.Tuple, newBase catalog.Tuple) error {
	e := vt.ext
	if e.OpAt(ext, 1) == OpDelete {
		return fmt.Errorf("%w: update of logically-deleted tuple in %s", ErrInvalidMaintenanceOp, e.Base.Name)
	}
	newBase, err := e.checkUpdate(ext, newBase)
	if err != nil {
		return err
	}
	a.stats.LogicalUpdates++
	a.met().logicalUpd.Inc()
	t := ext.Clone()
	if e.TupleVN(ext, 1) < a.m.vn {
		// Row 1: first touch by this transaction — preserve the current
		// values as the new slot-1 pre-update version.
		e.PushBack(t)
		e.SetPreValues(t, 1, e.CurrentUpd(t))
		e.SetSlot(t, 1, a.m.vn, OpUpdate)
		e.SetBaseValues(t, newBase)
	} else {
		// Row 2: already modified by this transaction — overwrite the
		// current values only; the recorded operation keeps its net
		// effect (insert stays insert).
		e.SetBaseValues(t, newBase)
		if !a.m.netEffect {
			e.SetSlot(t, 1, a.m.vn, OpUpdate) // ablation: clobber the net effect
		}
		a.stats.NetEffectFolds++
		a.met().netFolds.Inc()
	}
	if err := a.physUpdate(vt, rid, ext, t); err != nil {
		return err
	}
	if e.TupleVN(ext, 1) < a.m.vn {
		a.met().cellT3R1.Inc()
	} else {
		a.met().cellT3R2.Inc()
	}
	return nil
}

// checkUpdate validates newBase as the new values of the stored tuple ext:
// they must fit the base schema and keep every non-updatable column's
// current value.
func (e *ExtTable) checkUpdate(ext, newBase catalog.Tuple) (catalog.Tuple, error) {
	newBase, err := e.Base.Validate(newBase)
	if err != nil {
		return nil, err
	}
	cur := e.BaseValues(ext)
	for i := range cur {
		if _, upd := e.IsUpdatable(i); !upd && !catalog.Equal(cur[i], newBase[i]) {
			return nil, fmt.Errorf("core: update changes non-updatable column %q of %s",
				e.Base.Columns[i].Name, e.Base.Name)
		}
	}
	return newBase, nil
}

// applyDelete folds a logical delete of one tuple (Table 4).
func (a *applier) applyDelete(vt *VTable, rid storage.RID, ext catalog.Tuple) error {
	e := vt.ext
	if e.OpAt(ext, 1) == OpDelete {
		return fmt.Errorf("%w: delete of logically-deleted tuple in %s", ErrInvalidMaintenanceOp, e.Base.Name)
	}
	a.stats.LogicalDeletes++
	a.met().logicalDel.Inc()
	if e.TupleVN(ext, 1) < a.m.vn {
		// Row 1: preserve the current values as the pre-update version and
		// mark the tuple logically deleted. The physical operation is an
		// update — the tuple stays for readers (§3.3).
		t := ext.Clone()
		e.PushBack(t)
		e.SetPreValues(t, 1, e.CurrentUpd(t))
		e.SetSlot(t, 1, a.m.vn, OpDelete)
		if err := a.physUpdate(vt, rid, ext, t); err != nil {
			return err
		}
		a.met().cellT4R1.Inc()
		return nil
	}
	// Row 2: modified earlier by this same transaction. The net effect
	// depends on which operation this transaction already recorded — the
	// switch mirrors Table 4's row-2 cells and is checked for coverage by
	// vnlvet's tableexhaustive analyzer.
	switch e.OpAt(ext, 1) {
	case OpInsert:
		if e.L.N > 2 && e.TupleVN(ext, 2) > 0 {
			// The "insert" was a re-insert over an earlier delete (Table 2
			// row 1) that pushed older history back. Insert+delete nets to
			// nothing, so pop the slots to restore that history instead of
			// physically deleting — nVNL readers may still need it. (The
			// restored slot-1 operation is necessarily the earlier delete,
			// so the stale current values are never read.)
			t := ext.Clone()
			e.PopFront(t)
			if err := a.physUpdate(vt, rid, ext, t); err != nil {
				return err
			}
			// Popping lowered this tuple's oldest slot; if it carried the
			// high-water mark, the mark is now stale-high and must be
			// recomputed. (physUpdate's noteTupleWrite only raises.)
			vt.noteTupleRemoved(ext)
			a.stats.NetEffectFolds++
			a.met().netFolds.Inc()
			a.met().cellT4R2InsPop.Inc()
			return nil
		}
		if img := a.tombstones[tupleRef{vt, rid}]; img != nil {
			// A re-insert over an earlier delete in 2VNL, which has no
			// back slot to pop. Insert+delete nets to nothing, so restore
			// the delete: a session one version back still reads the
			// tuple's pre-delete values through it.
			if err := a.physUpdate(vt, rid, ext, img.Clone()); err != nil {
				return err
			}
			vt.noteTupleRemoved(ext)
			a.stats.NetEffectFolds++
			a.met().netFolds.Inc()
			a.met().cellT4R2InsPop.Inc()
			return nil
		}
		// A fresh physical insert: insert then delete nets to nothing —
		// physically delete.
		if err := a.physDelete(vt, rid, ext); err != nil {
			return err
		}
		a.stats.NetEffectFolds++
		a.met().netFolds.Inc()
		a.met().cellT4R2InsDelete.Inc()
		return nil
	case OpUpdate:
		// Previously updated by this transaction: net effect is delete.
		t := ext.Clone()
		e.SetSlot(t, 1, a.m.vn, OpDelete)
		if err := a.physUpdate(vt, rid, ext, t); err != nil {
			return err
		}
		a.stats.NetEffectFolds++
		a.met().netFolds.Inc()
		a.met().cellT4R2Update.Inc()
		return nil
	default:
		// OpDelete is rejected on entry and OpNone never carries
		// tupleVN == maintenanceVN; reaching here is a bookkeeping bug.
		return fmt.Errorf("%w: delete of %s tuple with unexpected slot-1 operation %s",
			ErrInvalidMaintenanceOp, e.Base.Name, e.OpAt(ext, 1))
	}
}
