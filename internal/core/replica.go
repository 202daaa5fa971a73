package core

import "repro/internal/catalog"

// This file is the store's surface for WAL-shipping replication followers
// (internal/repl): the replica's applier performs the same physical
// operations the primary's maintenance path performed, then publishes each
// replayed VN through the identical atomic snapshot swap, so replica reader
// sessions run the unmodified lock-free path at their replayed version.

// InstallReplayedVN publishes vn as the committed database version — the
// replication follower's equivalent of a maintenance commit. Unlike
// SetCurrentVN (crash recovery) it does not rescan the per-table oldest-slot
// watermarks: the replica applier maintains them per physical operation via
// NoteReplayedWrite/NoteReplayedRemove and settles them with SettleReplayed
// at the end of each replayed transaction, exactly as the primary's write
// path does, so publish stays O(1) per replayed transaction. The snapshot swap
// inside setGlobalsLocked is the release barrier: every physical write the
// transaction made happens-before a reader session observing the new VN.
func (s *Store) InstallReplayedVN(vn VN) {
	s.mu.Lock()
	s.setGlobalsLocked(vn, false)
	s.mu.Unlock()
	m := s.metrics
	m.vnAdvances.Inc()
	m.currentVN.Set(int64(vn))
	m.trace(TraceVNAdvance, vn, 0)
}

// NoteReplayedWrite raises the oldest-slot high-water mark for a tuple the
// replica applier just inserted or updated (mirrors the maintenance path's
// noteTupleWrite).
func (v *VTable) NoteReplayedWrite(ext catalog.Tuple) { v.noteTupleWrite(ext) }

// NoteReplayedRemove marks the high-water mark stale if a physically removed
// tuple may have carried it (mirrors noteTupleRemoved); SettleReplayed
// recomputes it.
func (v *VTable) NoteReplayedRemove(ext catalog.Tuple) { v.noteTupleRemoved(ext) }

// SettleReplayed recomputes every high-water mark a replayed removal marked
// stale, once per table. The replica applier calls it at the end of each
// replayed transaction; it is the store's only writer, so the walk is safe.
func (s *Store) SettleReplayed() { s.settleOldestHW() }

// NoteReplayedUpdate maintains the high-water mark across a replayed
// in-place update. An update record can both raise the mark (a new version
// pushed into the slots) and lower it (a net-effect fold that popped the
// oldest slot — Table 4 row 2 — looks like any other update on the wire),
// so this mirrors the primary's physUpdate + noteTupleRemoved pairing:
// raise to cover the after-image, then mark the mark stale if the
// before-image may have carried it.
func (v *VTable) NoteReplayedUpdate(before, after catalog.Tuple) {
	v.noteTupleWrite(after)
	v.noteTupleRemoved(before)
}
