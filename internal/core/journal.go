package core

import (
	"repro/internal/catalog"
	"repro/internal/storage"
)

// Journal receives every physical change a maintenance transaction makes,
// in order, plus transaction boundaries and DDL. The wal package implements
// it to provide durability; the hook lives here so core stays free of any
// dependency on the log format.
//
// The before image is always offered; a redo-only journal simply ignores
// it. That asymmetry is the point of §7: because a 2VNL tuple carries its
// own pre-update version, recovery never needs logged before-images — a
// conventional in-place engine would have to log them.
type Journal interface {
	// LogCreate records a versioned table's creation (base schema).
	LogCreate(base *catalog.Schema)
	// LogBegin records the start of maintenance transaction vn.
	LogBegin(vn VN)
	// LogInsert records a physical tuple insert (extended tuple).
	LogInsert(table string, rid storage.RID, after catalog.Tuple)
	// LogUpdate records an in-place physical update.
	LogUpdate(table string, rid storage.RID, before, after catalog.Tuple)
	// LogDelete records a physical delete.
	LogDelete(table string, rid storage.RID, before catalog.Tuple)
	// LogCommit records (and durably syncs) the transaction's commit.
	LogCommit(vn VN) error
	// LogAbort records the transaction's abort.
	LogAbort(vn VN)
}

// SetJournal installs a journal; passing nil disables journaling. Call it
// between maintenance transactions: a transaction writes every record to
// the journal installed when it began.
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// journalOrNil returns the installed journal (may be nil).
func (s *Store) journalOrNil() Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal
}

// SetCurrentVN installs a recovered version number. It is intended only
// for crash recovery (the wal package), which replays committed
// maintenance transactions and then advances the store to the highest
// committed VN; calling it with an active maintenance transaction or live
// sessions is invalid. In relation-backed mode a failed Version-relation
// write surfaces here rather than leaving the relation diverged from
// memory.
func (s *Store) SetCurrentVN(vn VN) error {
	s.mu.Lock()
	err := s.setGlobalsLocked(vn, false)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// Recovery replays tuples straight into the engine, bypassing the
	// maintenance write path that maintains the per-table oldest-slot
	// watermarks — rebuild them from the recovered heaps.
	for _, vt := range s.Tables() {
		vt.recomputeOldestHW()
	}
	return nil
}
