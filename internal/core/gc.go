package core

import (
	"repro/internal/catalog"
	"repro/internal/storage"
)

// GCStats reports one garbage-collection pass.
type GCStats struct {
	// Scanned is the number of physical tuples examined.
	Scanned int
	// Removed is the number of logically-deleted tuples physically
	// reclaimed.
	Removed int
	// BytesReclaimed is Removed × the extended tuple size, summed per
	// table.
	BytesReclaimed int
	// Err is the journal error, if any, from committing the GC
	// pseudo-transaction. The physical reclamation itself has already
	// happened; callers that need the reclamation to be recoverable must
	// check it (§7).
	Err error
}

// GC physically removes logically-deleted tuples that no current or future
// reader can need (§7 future work, implemented here). A deleted tuple with
// tupleVN = t is needed only by sessions with sessionVN < t, which read its
// pre-update version; sessions with sessionVN >= t ignore it (Table 1). It
// is therefore reclaimable once every active session has sessionVN >= t and
// the delete is committed (t <= currentVN) — new sessions always start at
// currentVN, so none can ever need it again.
//
// (The paper's §7 sketch states the stricter condition
// "tupleVN < sessionVN−1 for all active readers"; the condition used here
// additionally reclaims tuples whose deletion is exactly at the session
// floor, which Table 1 shows are already invisible to those sessions.)
//
// GC is safe to run concurrently with readers and with an active
// maintenance transaction: it only touches committed deletes (tupleVN <=
// currentVN < maintenanceVN), which the maintenance transaction would treat
// as conflict targets — so to keep Table 2's key-conflict bookkeeping
// coherent, GC skips tables while a maintenance transaction is active
// unless force is requested via GCWithFloor.
func (s *Store) GC() GCStats {
	cur, active, _ := s.readGlobals()
	if active {
		return GCStats{}
	}
	floor := cur
	if minVN, any := s.activeSessionFloor(); any && minVN < floor {
		floor = minVN
	}
	if fn := s.gcClamp.Load(); fn != nil {
		if vn, ok := (*fn)(); ok && vn < floor {
			floor = vn
		}
	}
	return s.GCWithFloor(floor)
}

// SetGCFloorClamp installs (or, with nil, removes) an external bound on the
// GC floor: each pass calls fn and, when it reports ok, reclaims nothing
// newer than the returned VN. Two callers use it. The shard router clamps
// every shard to the published cross-shard epoch, closing the race where a
// reader has loaded the epoch but not yet registered its per-shard sessions
// when GC runs with floor = currentVN. A replication primary clamps to the
// slowest replica's advertised pinned VN, so a replayed GC delete can never
// reclaim a pre-image a lagging replica session still reads.
func (s *Store) SetGCFloorClamp(fn func() (VN, bool)) {
	if fn == nil {
		s.gcClamp.Store(nil)
		return
	}
	s.gcClamp.Store(&fn)
}

// GCWithFloor reclaims logically-deleted tuples with tupleVN <= floor.
// Callers are responsible for choosing a floor no greater than the minimum
// active sessionVN and currentVN.
//
// When a journal is installed, the physical deletions are journaled as a
// committed pseudo-transaction (VN 0): without that, a later fresh insert
// of a reclaimed key would collide with the still-logically-deleted tuple
// during recovery replay.
func (s *Store) GCWithFloor(floor VN) GCStats {
	var stats GCStats
	j := s.journalOrNil()
	journalOpen := false
	for _, vt := range s.Tables() {
		e := vt.ext
		// The victim test runs against the stored tuples in place; only
		// victims are copied out, and only their RIDs kept.
		var victims []storage.RID
		_ = vt.tbl.ScanFilter(storage.Filter{Pred: func(t catalog.Tuple) (bool, error) {
			stats.Scanned++
			return e.OpAt(t, 1) == OpDelete && e.TupleVN(t, 1) <= floor, nil
		}}, func(rids []storage.RID, _ []catalog.Tuple) bool {
			victims = append(victims, rids...)
			return true
		})
		for _, rid := range victims {
			before, err := vt.tbl.Get(rid)
			if err != nil {
				continue
			}
			if err := vt.tbl.Delete(rid); err == nil {
				stats.Removed++
				stats.BytesReclaimed += e.Ext.RowBytes()
				vt.noteTupleRemoved(before)
				if j != nil {
					if !journalOpen {
						j.LogBegin(0)
						journalOpen = true
					}
					j.LogDelete(e.Base.Name, rid, before)
				}
			}
		}
		vt.settleOldestHW()
	}
	if journalOpen {
		if err := j.LogCommit(0); err != nil {
			stats.Err = err
		}
	}
	mm := s.metrics
	mm.gcPasses.Inc()
	mm.gcScanned.Add(int64(stats.Scanned))
	mm.gcRemoved.Add(int64(stats.Removed))
	mm.gcBytes.Add(int64(stats.BytesReclaimed))
	mm.trace(TraceGCPass, floor, int64(stats.Removed))
	return stats
}

// DeadTuples counts logically-deleted tuples awaiting collection, per
// registered table.
func (s *Store) DeadTuples() map[string]int {
	out := make(map[string]int)
	for _, vt := range s.Tables() {
		e := vt.ext
		n := 0
		// Counted in place: the predicate keeps nothing, so nothing is copied.
		_ = vt.tbl.ScanFilter(storage.Filter{Pred: func(t catalog.Tuple) (bool, error) {
			if e.OpAt(t, 1) == OpDelete {
				n++
			}
			return false, nil
		}}, func([]storage.RID, []catalog.Tuple) bool { return true })
		out[e.Base.Name] = n
	}
	return out
}
