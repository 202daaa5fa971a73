package wal

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// RecoverStats summarizes a recovery pass.
type RecoverStats struct {
	RecordsScanned int
	CommittedTxns  int
	SkippedTxns    int // uncommitted at crash: ignored entirely
	TablesCreated  int
	TuplesReplayed int
	HighestVN      core.VN
}

// TableRID identifies a tuple by its logged address. Recovery remaps
// logged addresses to the physical addresses replayed tuples actually
// landed at (uncommitted inserts are skipped, so addresses shift).
type TableRID struct {
	Table string
	RID   storage.RID
}

// ResumeState is the live replay bookkeeping a replication follower needs
// to keep applying records past the recovered prefix. The remap table and
// the open transaction's buffered records reference bytes before the clean
// end — bytes a follower never fetches again — so recovery must hand them
// over rather than have the follower rebuild them from the stream.
type ResumeState struct {
	// CleanLSN is the byte offset after the last whole, checksummed record:
	// the truncation point for the torn tail and the offset to resume
	// fetching from.
	CleanLSN int64
	// Remap maps logged (table, RID) addresses to physical addresses in
	// the recovered store, for tuples still live at the clean end.
	Remap map[TableRID]storage.RID
	// Tail holds the records of the transaction left open (no commit or
	// abort yet) at the clean end, Begin first, in log order. Its tuples
	// were not replayed; if the stream later delivers the commit, the
	// follower applies them then.
	Tail []*Record
}

// Recover rebuilds a version store from the log at path: it scans once to
// find the committed transactions, then replays their physical changes in
// log order into a fresh store. Records of transactions without a commit
// record — in-flight at the crash — are skipped entirely, so no undo
// information is ever needed: the redo-only discipline §7's observation
// enables.
//
// Logged RIDs are remapped: because uncommitted transactions' inserts are
// not replayed, physical addresses shift; the remap table tracks, per
// logged (table, RID), the address the replayed tuple actually landed at.
//
// The returned store has currentVN equal to the highest committed
// maintenance VN and no active transaction.
func Recover(path string, dbOpts db.Options, storeOpts core.Options) (*core.Store, *db.Database, RecoverStats, error) {
	return RecoverFS(vfs.Disk(), path, dbOpts, storeOpts)
}

// RecoverFS is Recover over an explicit filesystem, on which the log is the
// only file it reads.
func RecoverFS(fsys vfs.FS, path string, dbOpts db.Options, storeOpts core.Options) (*core.Store, *db.Database, RecoverStats, error) {
	store, engine, stats, _, err := RecoverStreamFS(fsys, path, dbOpts, storeOpts)
	return store, engine, stats, err
}

// RecoverStreamFS is RecoverFS plus the ResumeState a replication follower
// needs to continue incremental replay where the recovered prefix ended.
func RecoverStreamFS(fsys vfs.FS, path string, dbOpts db.Options, storeOpts core.Options) (*core.Store, *db.Database, RecoverStats, *ResumeState, error) {
	var stats RecoverStats
	resume := &ResumeState{Remap: map[TableRID]storage.RID{}}
	// Pass 1: which transaction *instances* committed? Version numbers are
	// not unique across the log — an aborted transaction's VN is reused by
	// the next one — so transactions are identified by their ordinal
	// position (Begin count).
	committed := map[int]bool{}
	instance := -1
	if f, err := fsys.Open(path); errors.Is(err, os.ErrNotExist) {
		// A log that was never created is an empty history: a crash before
		// the first durable write recovers to a fresh, empty store.
		engine := db.Open(dbOpts)
		store, serr := core.Open(engine, storeOpts)
		return store, engine, stats, resume, serr
	} else if err != nil {
		return nil, nil, stats, nil, err
	} else if cerr := f.Close(); cerr != nil {
		return nil, nil, stats, nil, cerr
	}
	clean, err := IterateLSNFS(fsys, path, func(_ int64, r *Record) error {
		stats.RecordsScanned++
		switch r.Kind {
		case KindBegin:
			instance++
		case KindCommit:
			committed[instance] = true
			if r.VN > stats.HighestVN {
				stats.HighestVN = r.VN
			}
		case KindCreate, KindInsert, KindUpdate, KindDelete, KindAbort:
			// Only transaction boundaries matter in pass 1; tuple records
			// and aborts are replayed (or skipped) in pass 2.
		}
		return nil
	})
	if err != nil {
		return nil, nil, stats, nil, err
	}
	resume.CleanLSN = clean
	stats.CommittedTxns = len(committed)
	stats.SkippedTxns = (instance + 1) - len(committed)

	// Pass 2: replay.
	engine := db.Open(dbOpts)
	store, err := core.Open(engine, storeOpts)
	if err != nil {
		return nil, nil, stats, nil, err
	}
	remap := resume.Remap
	inCommitted := false
	var open []*Record // records of the not-yet-terminated transaction
	instance = -1
	replayErr := IterateFS(fsys, path, func(r *Record) error {
		switch r.Kind {
		case KindCreate:
			if _, err := store.CreateTable(r.Schema); err != nil {
				return fmt.Errorf("wal: recreate %s: %w", r.Schema.Name, err)
			}
			stats.TablesCreated++
		case KindBegin:
			instance++
			inCommitted = committed[instance]
			open = []*Record{r}
		case KindCommit, KindAbort:
			inCommitted = false
			open = nil
		case KindInsert, KindUpdate, KindDelete:
			if open != nil {
				open = append(open, r)
			}
			if !inCommitted {
				return nil
			}
			vt, err := store.Table(r.Table)
			if err != nil {
				return fmt.Errorf("wal: replay into unknown table %q", r.Table)
			}
			key := TableRID{r.Table, r.RID}
			switch r.Kind {
			case KindCreate, KindBegin, KindCommit, KindAbort:
				// Unreachable: the enclosing case restricts r.Kind to the
				// three tuple-record kinds.
			case KindInsert:
				newRID, err := vt.Storage().Insert(r.After)
				if err != nil {
					return fmt.Errorf("wal: replay insert: %w", err)
				}
				remap[key] = newRID
			case KindUpdate:
				rid, ok := remap[key]
				if !ok {
					return fmt.Errorf("wal: update of unmapped tuple %s%v", r.Table, r.RID)
				}
				if err := vt.Storage().Update(rid, r.After); err != nil {
					return fmt.Errorf("wal: replay update: %w", err)
				}
			case KindDelete:
				rid, ok := remap[key]
				if !ok {
					return fmt.Errorf("wal: delete of unmapped tuple %s%v", r.Table, r.RID)
				}
				if err := vt.Storage().Delete(rid); err != nil {
					return fmt.Errorf("wal: replay delete: %w", err)
				}
				delete(remap, key)
			}
			stats.TuplesReplayed++
		}
		return nil
	})
	if replayErr != nil {
		return nil, nil, stats, nil, replayErr
	}
	// A transaction still open at the clean end was necessarily skipped
	// (it has no commit record); its buffered records are the follower's
	// resume tail.
	resume.Tail = open
	if stats.HighestVN > 1 {
		store.SetCurrentVN(stats.HighestVN)
	}
	mRecoverRecords.Add(int64(stats.RecordsScanned))
	mRecoverReplayed.Add(int64(stats.TuplesReplayed))
	mRecoverTxns.Add(int64(stats.CommittedTxns))
	return store, engine, stats, resume, nil
}
