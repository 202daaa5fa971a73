package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/sql"
	"repro/internal/storage"
)

// MaintStats counts a maintenance transaction's logical operations and the
// physical operations they translated to (§3.3 stresses they differ: a
// logical delete is usually a physical update). The I/O experiments report
// these.
type MaintStats struct {
	LogicalInserts  int
	LogicalUpdates  int
	LogicalDeletes  int
	PhysicalInserts int
	PhysicalUpdates int
	PhysicalDeletes int
	// NetEffectFolds counts second-touches: operations on tuples this
	// transaction had already modified, whose recorded operation was
	// folded into a net effect (Tables 2–4, second rows).
	NetEffectFolds int
}

// Maintenance is the warehouse's single writer: a batch maintenance
// transaction running at maintenanceVN = currentVN + 1. It reads current
// versions, folds logical operations into tuples per the decision tables,
// and never blocks or is blocked by reader sessions.
type Maintenance struct {
	store *Store
	vn    VN
	done  bool
	// netEffect disables the second-row net-effect folding when false —
	// an ablation switch used to demonstrate why the folding matters.
	netEffect bool
	began     time.Time
	// ap is the applier every write path of the transaction runs on.
	ap *applier
	// journal is the store's journal as BeginMaintenance read it; the
	// transaction writes every record to it. SetJournal swaps journals only
	// between transactions.
	journal Journal
	// broken poisons the transaction after a failed heap write or batch
	// left the journal and the heap potentially divergent, or a failed
	// Rollback left it half reverted: Commit refuses and the caller must
	// Rollback (whose abort record makes recovery skip the transaction).
	broken error
}

// met returns the store's metrics (never nil).
func (m *Maintenance) met() *storeMetrics { return m.store.metrics }

// BeginMaintenance starts the maintenance transaction: it reads currentVN,
// sets maintenanceVN = currentVN + 1, and raises the global
// maintenanceActive flag (§3). Only one maintenance transaction may run at
// a time; a second call returns ErrMaintenanceActive. A call that arrives
// during a GC pass waits for the pass to end.
func (s *Store) BeginMaintenance() (*Maintenance, error) {
	return s.beginMaintenance(true)
}

// beginMaintenance is BeginMaintenance with the net-effect switch exposed
// for the ablation test: disable it and readers observe incorrect states,
// which is the point of the ablation.
func (s *Store) beginMaintenance(netEffect bool) (*Maintenance, error) {
	// Wait out a GC pass in progress: it could otherwise delete a victim
	// this transaction re-inserts over (Table 2), and interleave its VN-0
	// records with this transaction's in the journal.
	s.gcMu.Lock()
	acquired := s.latchAcquire()
	cur, active := s.globalsLocked()
	if active {
		s.latchRelease(acquired)
		s.gcMu.Unlock()
		return nil, ErrMaintenanceActive
	}
	m := &Maintenance{store: s, vn: cur + 1, netEffect: netEffect, began: time.Now(), journal: s.journal}
	m.ap = &applier{m: m}
	s.setGlobalsLocked(cur, true)
	s.maint = m
	s.latchRelease(acquired)
	s.gcMu.Unlock()
	// Journal the begin record outside the latch: the append may block on
	// I/O and the §3 latch must stay short-duration. Write-ahead is
	// preserved — no tuple record can be emitted before this call returns
	// the Maintenance handle, and the active flag set above excludes a
	// competing begin.
	if m.journal != nil {
		m.journal.LogBegin(m.vn)
	}
	mm := s.metrics
	mm.maintBegun.Inc()
	mm.maintActive.Set(1)
	mm.trace(TraceMaintBegin, m.vn, 0)
	return m, nil
}

// VN returns maintenanceVN.
func (m *Maintenance) VN() VN { return m.vn }

// Stats returns the operation counters so far.
func (m *Maintenance) Stats() MaintStats { return m.ap.stats }

func (m *Maintenance) checkActive() error {
	if m.done {
		return ErrMaintenanceDone
	}
	return nil
}

// table resolves a registered versioned relation.
func (m *Maintenance) table(name string) (*VTable, error) {
	return m.store.Table(name)
}

// Insert performs a logical insert of a base-schema tuple, implementing
// Table 2. For relations with a unique key, a key conflict with a
// logically-deleted tuple converts the insert into a physical update (rows
// one and two); a conflict with a live tuple is impossible in a valid
// transaction and returns ErrInvalidMaintenanceOp. The Tables 2–4 folding
// itself lives on the applier (apply.go), shared with ApplyBatch.
func (m *Maintenance) Insert(tableName string, base catalog.Tuple) error {
	if err := m.checkActive(); err != nil {
		return err
	}
	vt, err := m.table(tableName)
	if err != nil {
		return err
	}
	return m.ap.insert(vt, base)
}

// lookupKey reads the stored tuple with the given unique key. found is false
// when no tuple has the key, or its slot was freed since the index lookup —
// the legal skip. Any other read error is corruption and is returned, so
// that it fails the operation instead of passing for a missing key and
// silently shrinking the transaction.
func (v *VTable) lookupKey(key catalog.Tuple) (rid storage.RID, ext catalog.Tuple, found bool, err error) {
	rid, ok := v.tbl.SearchKey(key)
	if !ok {
		return rid, nil, false, nil
	}
	ext, err = v.tbl.Get(rid)
	if errors.Is(err, storage.ErrNotFound) {
		return rid, nil, false, nil
	}
	return rid, ext, err == nil, err
}

// UpdateKey updates the single tuple with the given unique key. It reports
// whether a live tuple with that key existed.
func (m *Maintenance) UpdateKey(tableName string, key catalog.Tuple, set func(catalog.Tuple) catalog.Tuple) (bool, error) {
	if err := m.checkActive(); err != nil {
		return false, err
	}
	vt, err := m.table(tableName)
	if err != nil {
		return false, err
	}
	rid, ext, found, err := vt.lookupKey(key)
	if !found {
		return false, err
	}
	cur, visible := vt.ext.CurrentVersion(ext)
	if !visible {
		return false, nil
	}
	return true, m.ap.applyUpdate(vt, rid, ext, set(cur.Clone()))
}

// DeleteKey logically deletes the tuple with the given unique key. It
// reports whether a live tuple with that key existed.
func (m *Maintenance) DeleteKey(tableName string, key catalog.Tuple) (bool, error) {
	if err := m.checkActive(); err != nil {
		return false, err
	}
	vt, err := m.table(tableName)
	if err != nil {
		return false, err
	}
	rid, ext, found, err := vt.lookupKey(key)
	if !found {
		return false, err
	}
	if _, visible := vt.ext.CurrentVersion(ext); !visible {
		return false, nil
	}
	return true, m.ap.applyDelete(vt, rid, ext)
}

// GetCurrent returns the current version of the tuple with the given key,
// as the maintenance transaction sees it (first row of Table 1).
func (m *Maintenance) GetCurrent(tableName string, key catalog.Tuple) (catalog.Tuple, bool, error) {
	vt, err := m.table(tableName)
	if err != nil {
		return nil, false, err
	}
	_, ext, found, err := vt.lookupKey(key)
	if !found {
		return nil, false, err
	}
	cur, visible := vt.ext.CurrentVersion(ext)
	return cur, visible, nil
}

// Query runs a SELECT as the maintenance transaction: the readers' plan
// read at maintenanceVN, so the transaction reads the first
// row of Table 1 — the latest version of every tuple, its own uncommitted
// changes included (§3.3).
func (m *Maintenance) Query(text string, params exec.Params) (*exec.Rows, error) {
	if err := m.checkActive(); err != nil {
		return nil, err
	}
	e, err := m.store.textPlan(text)
	if err != nil {
		return nil, err
	}
	return exec.Collect(func(sink exec.Sink) error { return m.store.executePlan(e, params, m.vn, sink) })
}

// Exec parses and applies a maintenance DML statement (INSERT, UPDATE or
// DELETE over a base schema) and returns the number of logical rows it
// affected. §4.2 writes such a statement as a cursor loop and leaves its
// atomicity to the DBMS underneath; this engine is that DBMS, so the
// statement runs in two phases. It is first evaluated whole: every VALUES
// row and its key, or the WHERE over every current version (Table 1's
// first row) and the SET of each match, checked as the applier checks them.
// An error there returns with nothing written, and the transaction stays
// committable. The targets are then folded through Tables 2–4 under
// ApplyBatch's rule: an error after the first write poisons the
// transaction, so Commit refuses and the caller must Rollback.
func (m *Maintenance) Exec(text string, params exec.Params) (int, error) {
	if err := m.checkActive(); err != nil {
		return 0, err
	}
	if m.broken != nil {
		return 0, fmt.Errorf("core: statement refused after a failed write: %w", m.broken)
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	var vt *VTable
	var targets []target
	switch st := stmt.(type) {
	case *sql.InsertStmt:
		vt, targets, err = m.evalInsert(st, params)
	case *sql.UpdateStmt:
		vt, targets, err = m.evalWhere(st.Table, st.Where, st.Sets, params)
	case *sql.DeleteStmt:
		vt, targets, err = m.evalWhere(st.Table, st.Where, nil, params)
	default:
		err = fmt.Errorf("core: maintenance cannot execute %T", stmt)
	}
	if err != nil {
		return 0, err
	}
	defer m.store.settleOldestHW()
	for i, tg := range targets {
		switch {
		case tg.ext == nil:
			err = m.ap.insert(vt, tg.base)
		case tg.base == nil:
			err = m.ap.applyDelete(vt, tg.rid, tg.ext)
		default:
			err = m.ap.applyUpdate(vt, tg.rid, tg.ext, tg.base)
		}
		if err != nil {
			// A heap fault has poisoned the transaction already; any
			// other error of the first target comes before its write.
			if i > 0 && m.broken == nil {
				m.broken = err
			}
			return i, err
		}
	}
	return len(targets), nil
}

// target is one row of an evaluated statement: an insert carries the new
// base tuple, a delete the stored tuple and its RID, an update all three.
type target struct {
	rid  storage.RID
	ext  catalog.Tuple // the stored tuple; nil for an insert
	base catalog.Tuple // the new base values; nil for a delete
}

// evalInsert evaluates and validates every VALUES row of an INSERT, and
// refuses a key that Table 2 would: one held by a tuple not logically
// deleted, or one an earlier row of the statement inserts.
func (m *Maintenance) evalInsert(st *sql.InsertStmt, params exec.Params) (*VTable, []target, error) {
	vt, err := m.table(st.Table)
	if err != nil {
		return nil, nil, err
	}
	base := vt.ext.Base
	colIdx := make([]int, 0, len(st.Columns))
	if st.Columns == nil {
		for i := range base.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range st.Columns {
			idx := base.ColIndex(name)
			if idx < 0 {
				return nil, nil, fmt.Errorf("core: table %q has no column %q", st.Table, name)
			}
			colIdx = append(colIdx, idx)
		}
	}
	targets := make([]target, len(st.Rows))
	keys := index.NewHash(true)
	for r, row := range st.Rows {
		if len(row) != len(colIdx) {
			return nil, nil, fmt.Errorf("core: INSERT row has %d values for %d columns", len(row), len(colIdx))
		}
		t := make(catalog.Tuple, len(base.Columns))
		for i := range t {
			t[i] = catalog.Null
		}
		for i, e := range row {
			if t[colIdx[i]], err = exec.EvalConst(e, params); err != nil {
				return nil, nil, err
			}
		}
		if targets[r].base, err = base.Validate(t); err != nil {
			return nil, nil, err
		}
		if base.HasKey() {
			key := base.KeyOf(targets[r].base)
			_, ext, found, err := vt.lookupKey(key)
			if err != nil || keys.Insert(key, storage.RID{}) != nil || found && vt.ext.OpAt(ext, 1) != OpDelete {
				return nil, nil, fmt.Errorf("%w: insert of live key %v into %s", ErrInvalidMaintenanceOp, key, base.Name)
			}
		}
	}
	return vt, targets, nil
}

// evalWhere evaluates the WHERE of an UPDATE or a DELETE over every current
// version in one in-place walk of the table, and collects the matches. For
// an UPDATE (sets non-nil) it evaluates each match's SET over its current
// values and checks the new values as applyUpdate does.
func (m *Maintenance) evalWhere(table string, where sql.Expr, sets []sql.SetClause, params exec.Params) (*VTable, []target, error) {
	vt, err := m.table(table)
	if err != nil {
		return nil, nil, err
	}
	e := vt.ext
	setIdx := make([]int, len(sets))
	for i, set := range sets {
		if setIdx[i] = e.Base.ColIndex(set.Column); setIdx[i] < 0 {
			return nil, nil, fmt.Errorf("core: table %q has no column %q", table, set.Column)
		}
	}
	ev := exec.NewRowEval(table, e.Base, params)
	var targets []target
	var setErr error
	err = vt.tbl.ScanFilter(storage.Filter{Pred: func(t catalog.Tuple) (bool, error) {
		cur, visible := e.CurrentVersion(t)
		if !visible || where == nil {
			return visible, nil
		}
		return ev.Truthy(where, cur)
	}}, func(rids []storage.RID, tuples []catalog.Tuple) bool {
		for i, t := range tuples {
			tg := target{rid: rids[i], ext: t.Clone()}
			if sets != nil {
				cur := e.BaseValues(tg.ext)
				next := cur.Clone()
				for j, set := range sets {
					if next[setIdx[j]], setErr = ev.Value(set.Expr, cur); setErr != nil {
						return false
					}
				}
				if tg.base, setErr = e.checkUpdate(tg.ext, next); setErr != nil {
					return false
				}
			}
			targets = append(targets, tg)
		}
		return true
	})
	if err == nil {
		err = setErr
	}
	return vt, targets, err
}

// Commit installs the transaction's version: currentVN ← maintenanceVN and
// maintenanceActive ← false, under the global latch (§3), after the commit
// record is durable. The installation is one latched snapshot swap, so no
// reader ever sees a half-installed version.
func (m *Maintenance) Commit() error {
	if err := m.checkActive(); err != nil {
		return err
	}
	if m.broken != nil {
		return fmt.Errorf("core: commit refused after a failed write: %w", m.broken)
	}
	start := time.Now()
	s := m.store
	// A single-operation call leaves a stale watermark to here.
	s.settleOldestHW()
	if j := m.journal; j != nil {
		// Write-ahead rule: the commit record is durable before the new
		// version becomes visible.
		if err := j.LogCommit(m.vn); err != nil {
			return fmt.Errorf("core: commit journal: %w", err)
		}
	}
	acquired := s.latchAcquire()
	s.setGlobalsLocked(m.vn, false)
	s.finishLocked(m)
	s.latchRelease(acquired)
	mm := s.metrics
	mm.commitNS.ObserveSince(start)
	mm.txnNS.ObserveSince(m.began)
	mm.maintCommits.Inc()
	mm.vnAdvances.Inc()
	mm.currentVN.Set(int64(m.vn))
	mm.maintActive.Set(0)
	phys := int64(m.ap.stats.PhysicalInserts + m.ap.stats.PhysicalUpdates + m.ap.stats.PhysicalDeletes)
	mm.trace(TraceMaintCommit, m.vn, phys)
	mm.trace(TraceVNAdvance, m.vn, 0)
	return nil
}

// finishLocked retires a committed or rolled-back transaction's
// bookkeeping. Caller holds the latch.
func (s *Store) finishLocked(m *Maintenance) {
	m.done = true
	m.ap.tombstones = nil
	s.maint = nil
}

// Rollback aborts the transaction by §7's logless revert: it reverts every
// touched tuple using only the version information inside it, with no undo
// log. Tuples the transaction freshly inserted are deleted. Every other
// tuple it modified gets its current values back from the slot-1 pre-update
// attributes, with slot 1 rewritten as (currentVN, update) — or (currentVN,
// delete) when the tuple was logically deleted before this transaction
// touched it. The aborted transaction consumed the slot-1 pre-update
// version, so sessions older than currentVN can no longer be served: the
// expiry floor rises to currentVN before any tuple is touched, and both
// expiry checks, before and after a query, test it. Sessions at currentVN
// are unaffected.
//
// A revert whose read or write fails returns the error and leaves the
// transaction active and poisoned: Commit refuses, and Rollback may be
// retried. The retry is idempotent, because only tuples still carrying
// maintenanceVN in slot 1 are reverted.
func (m *Maintenance) Rollback() error {
	if err := m.checkActive(); err != nil {
		return err
	}
	start := time.Now()
	s := m.store
	if m.journal != nil {
		m.journal.LogAbort(m.vn)
	}
	if err := m.revert(); err != nil {
		if m.broken == nil {
			m.broken = err
		}
		return fmt.Errorf("core: rollback: %w", err)
	}
	acquired := s.latchAcquire()
	curVN, _ := s.globalsLocked()
	s.setGlobalsLocked(curVN, false)
	s.finishLocked(m)
	s.latchRelease(acquired)
	mm := s.metrics
	mm.rollbackNS.ObserveSince(start)
	mm.txnNS.ObserveSince(m.began)
	mm.maintRollbacks.Inc()
	mm.maintActive.Set(0)
	mm.trace(TraceMaintRollback, m.vn, 0)
	return nil
}

// revert is Rollback's tuple work. A tuple already gone when the revert
// reaches it is skipped, as in VTable.lookupKey; any other error stops the
// revert and is returned.
func (m *Maintenance) revert() error {
	s := m.store
	cur := s.CurrentVN()
	// Raise the floor before touching any tuple: a reader older than
	// currentVN that raced the revert must see itself expired by its
	// post-query check rather than return values from a half-reverted
	// state.
	s.mu.Lock()
	if s.expireFloor < cur {
		s.expireFloor = cur
		s.publishLocked()
	}
	s.mu.Unlock()
	for _, vt := range s.Tables() {
		err := m.revertTable(vt, cur)
		vt.recomputeOldestHW()
		if err != nil {
			return err
		}
	}
	return nil
}

// revertTable reverts every tuple the transaction touched in one table
// using only in-tuple information: the previous version is extracted as of
// currentVN (the paper's §7 observation that modified tuples contain enough
// information to recover their previous version). An insert with no older
// history (slot 2 unused in nVNL, no overwritten 2VNL tombstone) is fresh
// and is deleted; the net-effect ablation's raw operations defeat this.
func (m *Maintenance) revertTable(vt *VTable, cur VN) error {
	e := vt.ext
	var touched []storage.RID
	vt.tbl.Scan(func(rid storage.RID, t catalog.Tuple) bool {
		if e.TupleVN(t, 1) == m.vn {
			touched = append(touched, rid)
		}
		return true
	})
	for _, rid := range touched {
		t, err := vt.tbl.Get(rid)
		if errors.Is(err, storage.ErrNotFound) {
			continue
		}
		if err == nil {
			err = m.store.injected(vt, t)
		}
		if err != nil {
			return err
		}
		if e.OpAt(t, 1) == OpInsert && (e.L.N == 2 || e.TupleVN(t, 2) == 0) && m.ap.tombstones[tupleRef{vt, rid}] == nil {
			if err := vt.tbl.Delete(rid); err != nil && !errors.Is(err, storage.ErrNotFound) {
				return err
			}
			continue
		}
		prev, visible, err := e.ReadAsOf(t, cur)
		if err != nil {
			return fmt.Errorf("cannot reconstruct version %d: %w", cur, err)
		}
		nt := t.Clone()
		if visible {
			// The tuple existed at cur: restore those values as current.
			e.SetBaseValues(nt, prev)
			e.SetSlot(nt, 1, cur, OpUpdate)
		} else {
			// The tuple was logically deleted at cur (this transaction
			// re-inserted over a deleted tuple): restore the delete
			// marker so the key stays reserved for conflict detection.
			e.SetSlot(nt, 1, cur, OpDelete)
		}
		// The slot-1 pre-update values were consumed by the aborted
		// transaction; leave them equal to the restored current values.
		// Sessions older than cur are expired by the store, so nothing
		// ever reads them.
		e.SetPreValues(nt, 1, e.CurrentUpd(nt))
		if err := vt.tbl.Update(rid, nt); err != nil {
			return err
		}
	}
	return nil
}
