package repl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// applier replays the decoded record stream into the follower's store. It
// is the incremental continuation of wal.RecoverStreamFS's pass 2: the
// remap table and any open transaction's buffered records are handed over
// in a wal.ResumeState, and from there every record applies exactly once,
// in log order, with committed transactions applied physically on their
// Commit record and aborted ones dropped wholesale (redo-only, as §7's
// logless argument permits).
//
// The applier is the store's only writer — replication followers refuse
// ApplyBatch — so the plain physical operations and watermark notes below
// need no latch; the snapshot swap in InstallReplayedVN publishes them.
type applier struct {
	store *core.Store
	remap map[wal.TableRID]storage.RID
	// pending buffers the open transaction's tuple records (Begin first);
	// nil when no transaction is open.
	pending []*wal.Record
	open    bool
}

func newApplier(store *core.Store, resume *wal.ResumeState) *applier {
	a := &applier{store: store, remap: resume.Remap}
	if a.remap == nil {
		a.remap = map[wal.TableRID]storage.RID{}
	}
	if len(resume.Tail) > 0 {
		a.open = true
		a.pending = append(a.pending, resume.Tail...)
	}
	return a
}

// drain consumes every complete record buffered in dec, returning how many
// transactions committed and the highest non-zero committed VN (GC commits
// carry VN 0 and publish nothing).
func (a *applier) drain(dec *wal.StreamDecoder) (commits int, maxVN core.VN, err error) {
	for {
		rec, err := dec.Next()
		if err != nil {
			return commits, maxVN, err
		}
		if rec == nil {
			return commits, maxVN, nil
		}
		committed, vn, err := a.apply(rec)
		if err != nil {
			return commits, maxVN, err
		}
		if committed {
			commits++
			if vn > maxVN {
				maxVN = vn
			}
		}
	}
}

// apply routes one record. Only a Commit mutates the store (plus Create,
// which the primary journals outside transactions and recovery applies
// unconditionally, so the follower does too).
func (a *applier) apply(r *wal.Record) (committed bool, vn core.VN, err error) {
	switch r.Kind {
	case wal.KindCreate:
		if _, err := a.store.CreateTable(r.Schema); err != nil {
			return false, 0, fmt.Errorf("repl: recreate %s: %w", r.Schema.Name, err)
		}
	case wal.KindBegin:
		if a.open {
			return false, 0, fmt.Errorf("repl: Begin inside an open transaction")
		}
		a.open = true
		a.pending = a.pending[:0]
		a.pending = append(a.pending, r)
	case wal.KindInsert, wal.KindUpdate, wal.KindDelete:
		if !a.open {
			return false, 0, fmt.Errorf("repl: %v record outside a transaction", r.Kind)
		}
		a.pending = append(a.pending, r)
	case wal.KindAbort:
		// Nothing was applied; the buffered records simply vanish.
		a.open = false
		a.pending = a.pending[:0]
	case wal.KindCommit:
		if err := a.commit(); err != nil {
			return false, 0, err
		}
		return true, r.VN, nil
	default:
		return false, 0, fmt.Errorf("repl: unknown record kind %v", r.Kind)
	}
	return false, 0, nil
}

// commit replays the buffered transaction physically: the logged images
// are the extended (slot-carrying) tuples the primary wrote, so inserting
// them verbatim reproduces the primary's version state. Logged RIDs are
// remapped exactly as recovery remaps them — the follower's physical
// addresses drift from the primary's (aborted transactions' inserts never
// happen here), and the remap table is the shared dictionary.
func (a *applier) commit() error {
	// One watermark recompute per replayed transaction, after its last
	// write, as on the primary.
	defer a.store.SettleReplayed()
	for _, r := range a.pending {
		switch r.Kind {
		case wal.KindBegin:
			continue
		case wal.KindCreate, wal.KindCommit, wal.KindAbort:
			return fmt.Errorf("repl: %v record buffered inside a transaction", r.Kind)
		case wal.KindInsert, wal.KindUpdate, wal.KindDelete:
		}
		vt, err := a.store.Table(r.Table)
		if err != nil {
			return fmt.Errorf("repl: replay into unknown table %q", r.Table)
		}
		key := wal.TableRID{Table: r.Table, RID: r.RID}
		switch r.Kind {
		case wal.KindCreate, wal.KindBegin, wal.KindCommit, wal.KindAbort:
			// Unreachable: filtered above.
		case wal.KindInsert:
			rid, err := vt.Storage().Insert(r.After)
			if err != nil {
				return fmt.Errorf("repl: replay insert: %w", err)
			}
			a.remap[key] = rid
			vt.NoteReplayedWrite(r.After)
		case wal.KindUpdate:
			rid, ok := a.remap[key]
			if !ok {
				return fmt.Errorf("repl: update of unmapped tuple %s%v", r.Table, r.RID)
			}
			// The pre-image drives the watermark maintenance (an update can
			// lower the oldest slot — a net-effect pop looks like any other
			// update on the wire); fetch it from the local heap, since
			// redo-only records carry no before-image.
			before, err := vt.Storage().Get(rid)
			if err != nil {
				return fmt.Errorf("repl: replay update read: %w", err)
			}
			if err := vt.Storage().Update(rid, r.After); err != nil {
				return fmt.Errorf("repl: replay update: %w", err)
			}
			vt.NoteReplayedUpdate(before, r.After)
		case wal.KindDelete:
			rid, ok := a.remap[key]
			if !ok {
				return fmt.Errorf("repl: delete of unmapped tuple %s%v", r.Table, r.RID)
			}
			// The before-image drives the watermark recompute; fetch it
			// while the tuple still exists (redo-only records carry none).
			before, err := vt.Storage().Get(rid)
			if err != nil {
				return fmt.Errorf("repl: replay delete read: %w", err)
			}
			if err := vt.Storage().Delete(rid); err != nil {
				return fmt.Errorf("repl: replay delete: %w", err)
			}
			delete(a.remap, key)
			vt.NoteReplayedRemove(before)
		}
	}
	a.open = false
	a.pending = a.pending[:0]
	return nil
}
