package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
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
// a time; a second call returns ErrMaintenanceActive.
func (s *Store) BeginMaintenance() (*Maintenance, error) {
	return s.beginMaintenance(true)
}

// beginMaintenance is BeginMaintenance with the net-effect switch exposed
// for the ablation test: disable it and readers observe incorrect states,
// which is the point of the ablation.
func (s *Store) beginMaintenance(netEffect bool) (*Maintenance, error) {
	acquired := s.latchAcquire()
	cur, active := s.globalsLocked()
	if active {
		s.latchRelease(acquired)
		return nil, ErrMaintenanceActive
	}
	m := &Maintenance{store: s, vn: cur + 1, netEffect: netEffect, began: time.Now(), journal: s.journal}
	m.ap = &applier{m: m}
	if err := s.setGlobalsLocked(cur, true); err != nil {
		s.latchRelease(acquired)
		return nil, fmt.Errorf("core: raising maintenanceActive: %w", err)
	}
	s.maint = m
	s.latchRelease(acquired)
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

// UpdateWhere applies a logical update to every current-version tuple
// satisfying pred, cursor-style (§4.2.2): matching RIDs are collected
// first, then each tuple is re-read and folded individually. set receives
// the current base tuple and returns the new one.
func (m *Maintenance) UpdateWhere(tableName string, pred func(catalog.Tuple) bool, set func(catalog.Tuple) catalog.Tuple) (int, error) {
	if err := m.checkActive(); err != nil {
		return 0, err
	}
	vt, err := m.table(tableName)
	if err != nil {
		return 0, err
	}
	rids := m.cursorSelect(vt, pred)
	n := 0
	for _, rid := range rids {
		ext, err := vt.tbl.Get(rid)
		if err != nil {
			continue
		}
		cur, visible := vt.ext.CurrentVersion(ext)
		if !visible || (pred != nil && !pred(cur)) {
			continue
		}
		if err := m.ap.applyUpdate(vt, rid, ext, set(cur.Clone())); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// DeleteWhere applies a logical delete to every current-version tuple
// satisfying pred, cursor-style (§4.2.3).
func (m *Maintenance) DeleteWhere(tableName string, pred func(catalog.Tuple) bool) (int, error) {
	if err := m.checkActive(); err != nil {
		return 0, err
	}
	vt, err := m.table(tableName)
	if err != nil {
		return 0, err
	}
	rids := m.cursorSelect(vt, pred)
	n := 0
	for _, rid := range rids {
		ext, err := vt.tbl.Get(rid)
		if err != nil {
			continue
		}
		cur, visible := vt.ext.CurrentVersion(ext)
		if !visible || (pred != nil && !pred(cur)) {
			continue
		}
		if err := m.ap.applyDelete(vt, rid, ext); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// lookupKey reads the stored tuple with the given unique key. found is false
// when no tuple has the key, or its slot was freed since the index lookup —
// the legal skip. Any other read error is an I/O fault and is returned, so
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

// cursorSelect collects the RIDs of current-version-visible tuples
// matching pred, without holding any latch across the whole scan.
func (m *Maintenance) cursorSelect(vt *VTable, pred func(catalog.Tuple) bool) []storage.RID {
	var rids []storage.RID
	vt.tbl.Scan(func(rid storage.RID, t catalog.Tuple) bool {
		cur, visible := vt.ext.CurrentVersion(t)
		if !visible {
			return true
		}
		if pred == nil || pred(cur) {
			rids = append(rids, rid)
		}
		return true
	})
	return rids
}

// Query runs a SELECT as the maintenance transaction: the readers' plan
// with sessionVN bound to maintenanceVN, so the transaction reads the first
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
	return m.store.executePlan(e, params, m.vn)
}

// Exec parses and applies a maintenance DML statement — INSERT, UPDATE, or
// DELETE over a base schema — by rewriting it into the cursor loops of
// §4.2. Returns the number of logical rows affected.
func (m *Maintenance) Exec(text string, params exec.Params) (int, error) {
	if err := m.checkActive(); err != nil {
		return 0, err
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	switch st := stmt.(type) {
	case *sql.InsertStmt:
		return m.execInsert(st, params)
	case *sql.UpdateStmt:
		return m.execUpdate(st, params)
	case *sql.DeleteStmt:
		return m.execDelete(st, params)
	default:
		return 0, fmt.Errorf("core: maintenance cannot execute %T", stmt)
	}
}

func (m *Maintenance) execInsert(st *sql.InsertStmt, params exec.Params) (int, error) {
	vt, err := m.table(st.Table)
	if err != nil {
		return 0, err
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
				return 0, fmt.Errorf("core: table %q has no column %q", st.Table, name)
			}
			colIdx = append(colIdx, idx)
		}
	}
	n := 0
	for _, row := range st.Rows {
		if len(row) != len(colIdx) {
			return n, fmt.Errorf("core: INSERT row has %d values for %d columns", len(row), len(colIdx))
		}
		t := make(catalog.Tuple, len(base.Columns))
		for i := range t {
			t[i] = catalog.Null
		}
		for i, e := range row {
			v, err := exec.EvalConst(e, params)
			if err != nil {
				return n, err
			}
			t[colIdx[i]] = v
		}
		if err := m.Insert(st.Table, t); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (m *Maintenance) execUpdate(st *sql.UpdateStmt, params exec.Params) (int, error) {
	vt, err := m.table(st.Table)
	if err != nil {
		return 0, err
	}
	base := vt.ext.Base
	setIdx := make([]int, len(st.Sets))
	for i, set := range st.Sets {
		idx := base.ColIndex(set.Column)
		if idx < 0 {
			return 0, fmt.Errorf("core: table %q has no column %q", st.Table, set.Column)
		}
		setIdx[i] = idx
	}
	ev := exec.NewRowEval(st.Table, base, params)
	pred := func(cur catalog.Tuple) bool {
		if st.Where == nil {
			return true
		}
		ok, err := ev.Truthy(st.Where, cur)
		return err == nil && ok
	}
	var evalErr error
	n, err := m.UpdateWhere(st.Table, pred, func(cur catalog.Tuple) catalog.Tuple {
		out := cur.Clone()
		for i, set := range st.Sets {
			v, err := ev.Value(set.Expr, cur)
			if err != nil {
				evalErr = err
				return out
			}
			out[setIdx[i]] = v
		}
		return out
	})
	if evalErr != nil {
		return n, evalErr
	}
	return n, err
}

func (m *Maintenance) execDelete(st *sql.DeleteStmt, params exec.Params) (int, error) {
	vt, err := m.table(st.Table)
	if err != nil {
		return 0, err
	}
	ev := exec.NewRowEval(st.Table, vt.ext.Base, params)
	return m.DeleteWhere(st.Table, func(cur catalog.Tuple) bool {
		if st.Where == nil {
			return true
		}
		ok, err := ev.Truthy(st.Where, cur)
		return err == nil && ok
	})
}

// Commit installs the transaction's version: currentVN ← maintenanceVN and
// maintenanceActive ← false, under the global latch (§3). (The paper notes
// that in a pure SQL deployment the Version-relation update should run as
// its own tiny transaction immediately after the maintenance commit so an
// abort never exposes a half-installed version; with the latched update
// here the installation is atomic.)
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
	// Install under the latch, retrying transient failures per the
	// store's policy. The latch is released for every backoff — readers
	// and the Version relation stay available while the install waits —
	// and reacquired for the next attempt.
	for attempt := 0; ; attempt++ {
		acquired := s.latchAcquire()
		err := s.setGlobalsLocked(m.vn, false)
		if err == nil {
			s.finishLocked(m)
			s.latchRelease(acquired)
			break
		}
		s.latchRelease(acquired)
		if attempt+1 >= s.commitRetry.Attempts {
			// Nothing was installed: the transaction stays active, so
			// the caller can retry Commit or fall back to Rollback
			// rather than run against a version state diverged from the
			// relation.
			return fmt.Errorf("core: installing version %d: %w", m.vn, err)
		}
		s.metrics.commitRetries.Inc()
		s.commitRetry.Wait(attempt)
	}
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
// A revert that fails on an I/O error returns it and leaves the transaction
// active and poisoned: Commit refuses, and Rollback may be retried. The
// retry is idempotent, because only tuples still carrying maintenanceVN in
// slot 1 are reverted.
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
	if err := s.setGlobalsLocked(curVN, false); err != nil {
		s.latchRelease(acquired)
		return fmt.Errorf("core: clearing maintenanceActive: %w", err)
	}
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
