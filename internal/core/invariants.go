package core

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// CheckInvariants scans every versioned table and verifies the structural
// 2VNL/nVNL invariants the decision tables (§3.3) and the recovery path
// (§7) must preserve. It is the crash harness's post-recovery oracle, but
// is callable on any quiescent store:
//
//   - No slot's tupleVN exceeds the highest version that can have written
//     it: currentVN, or currentVN+1 while a maintenance transaction is
//     active.
//   - Slot VNs are non-increasing from slot 1 to slot n−1 (newer versions
//     live in lower slots; PushBack shifts them down).
//   - A slot with tupleVN 0 records no operation, and a slot with a
//     nonzero tupleVN records a valid one (insert, update, delete).
//   - The table's oldest-slot high-water mark equals the scan maximum,
//     and the O(1) expiration probe agrees with its scan oracle for every
//     version through currentVN+2. While a maintenance transaction is
//     active, a removal may have marked the mark stale until the next
//     batch end or Commit; then it may also be above the scan maximum.
//   - Every heap page's version summary (ExtTable.summary) counts its
//     deleted tuples exactly and bounds every live tupleVN1 from above,
//     and its image (ExtTable.image) holds every live slot's payload and
//     counts the values not of their column's kind exactly.
//
// The first violation is returned as a descriptive error; nil means every
// table passed.
func (s *Store) CheckInvariants() error {
	maxVN := s.CurrentVN()
	active := s.MaintenanceActive()
	if active {
		maxVN++
	}
	for _, vt := range s.Tables() {
		if err := vt.checkInvariants(maxVN, s.CurrentVN(), active); err != nil {
			return err
		}
	}
	return nil
}

func (vt *VTable) checkInvariants(maxVN, currentVN VN, active bool) error {
	e := vt.ext
	name := vt.Base().Name
	oldest := e.L.N - 1
	var scanMax int64
	var firstErr error
	vt.tbl.Scan(func(rid storage.RID, tu catalog.Tuple) bool {
		prev := VN(-1)
		for j := 1; j <= e.L.N-1; j++ {
			vn := e.TupleVN(tu, j)
			op := e.OpAt(tu, j)
			if vn > maxVN {
				firstErr = fmt.Errorf("core: %s%v slot %d: tupleVN %d exceeds max writable version %d", name, rid, j, vn, maxVN)
				return false
			}
			if prev >= 0 && vn > prev {
				firstErr = fmt.Errorf("core: %s%v slot %d: tupleVN %d exceeds newer slot's %d", name, rid, j, vn, prev)
				return false
			}
			prev = vn
			switch {
			case vn == 0 && op != OpNone:
				firstErr = fmt.Errorf("core: %s%v slot %d: empty slot records operation %q", name, rid, j, op)
				return false
			case vn != 0 && op != OpInsert && op != OpUpdate && op != OpDelete:
				firstErr = fmt.Errorf("core: %s%v slot %d: tupleVN %d with invalid operation %q", name, rid, j, vn, op)
				return false
			}
		}
		if vn := int64(e.TupleVN(tu, oldest)); vn > scanMax {
			scanMax = vn
		}
		return true
	})
	if firstErr != nil {
		return firstErr
	}
	if err := vt.tbl.Heap().CheckSummary(); err != nil {
		return fmt.Errorf("core: %s: %w", name, err)
	}
	got := vt.oldestHW.Load()
	if active && vt.hwStale.Load() && got >= scanMax {
		return nil
	}
	if got != scanMax {
		return fmt.Errorf("core: %s: oldestHW %d diverges from scan maximum %d", name, got, scanMax)
	}
	for vn := VN(0); vn <= currentVN+2; vn++ {
		if fast, slow := vt.hasUnreconstructible(vn), vt.scanUnreconstructible(vn); fast != slow {
			return fmt.Errorf("core: %s: hasUnreconstructible(%d) = %v but scan oracle says %v", name, vn, fast, slow)
		}
	}
	return nil
}
