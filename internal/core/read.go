package core

import (
	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/storage"
)

// Slot is the reader decision of Table 1 (2VNL) and of §5's cases 1–2 (nVNL)
// as one decision per stored tuple: the version slot j a session at s reads t
// in — 0 for the current values, j ≥ 1 for slot j's pre-update copies;
// L.Off[j] locates either — and whether t exists in that version at all.
//
// Slots are ordered newest-first, so the session reads the current values
// when s ≥ tupleVN1 and otherwise the pre-update copies of the largest j whose
// tupleVNj exceeds s. The current version of a deleted tuple and the
// pre-update version of an inserted one do not exist. Unused slots carry
// tupleVN 0, which every session (VN ≥ 1) has seen.
//
// Slot neither allocates nor retains t, so compiled plans run it under the
// page latch. It does not detect expiry (§5's case 3): ReadAsOf and the
// session checks do.
func (e *ExtTable) Slot(t catalog.Tuple, s VN) (j int, visible bool) {
	for j < e.L.N-1 && s < e.TupleVN(t, j+1) {
		j++
	}
	if j == 0 {
		return 0, e.OpAt(t, 1) != OpDelete
	}
	return j, e.OpAt(t, j) != OpInsert
}

// ReadAsOf reconstructs a tuple's state as of session version s.
//
// It returns the base-schema tuple and visible=true when the tuple exists
// in version s; visible=false when the tuple must be ignored (see Slot); and
// ErrSessionExpired when the tuple has been modified by too many maintenance
// transactions since s (case 3: s < tupleVN(n−1)−1) — the per-tuple
// expiration detection of §3.2.
func (e *ExtTable) ReadAsOf(t catalog.Tuple, s VN) (base catalog.Tuple, visible bool, err error) {
	// Unused slots carry tupleVN 0 and never trigger this, because sessions
	// start at VN 1; a session reading the current values never does either.
	if oldest := e.TupleVN(t, e.L.N-1); oldest > 0 && s < oldest-1 {
		return nil, false, ErrSessionExpired
	}
	j, visible := e.Slot(t, s)
	if !visible {
		return nil, false, nil
	}
	base = make(catalog.Tuple, e.L.BaseLen)
	for i, off := range e.L.Off[j] {
		base[i] = t[off]
	}
	return base, true, nil
}

// summary is the relation's page summariser (storage.Summariser), which
// every heap of a versioned relation is created with: a stored tuple's
// tupleVN1 and whether operation1 is a delete. A page whose largest tupleVN1
// is at most a reader's VN s and that holds no delete is clean at s: Slot
// reads every tuple on it in slot 0 (s ≥ tupleVN1), visible (operation1 is
// not a delete), so the compiled plans skip Slot there.
//
// Nothing recomputes the bound downwards. A rollback lowers each tuple it
// reverts from tupleVN1 = maintenanceVN to currentVN, and a physical delete
// (GC, a net-effect fold) removes the tuple that may have set it; either can
// leave the bound above every live tupleVN1. That is safe — a stale-high
// bound only keeps the page on the per-tuple path until readers' VNs reach
// it, and the next commit's sessions do — so no rollback or restore pass is
// needed. The delete count
// is kept exact by every writer, a restored tombstone included.
func (e *ExtTable) summary(t catalog.Tuple) (vn int64, deleted bool) {
	return int64(e.TupleVN(t, 1)), e.OpAt(t, 1) == OpDelete
}

// image is what every heap of a versioned relation keeps an int64 image of
// beside its summary (storage.Imaged): the slot-0 copy of each base column
// declared INT, DATE or BOOL. On a clean page those copies are what a reader
// at its VN sees, so the clean-page kernel reads the image there and never
// the wide extended tuple.
func (e *ExtTable) image() []storage.Imaged {
	var im []storage.Imaged
	for i, c := range e.Base.Columns {
		switch c.Type {
		case catalog.TypeInt, catalog.TypeDate, catalog.TypeBool:
			im = append(im, storage.Imaged{Off: e.L.BaseStart + i, Kind: c.Type})
		case catalog.TypeNull, catalog.TypeFloat, catalog.TypeString: // no int64 payload
		}
	}
	return im
}

// stored is a versioned relation's heap as queryCatalog hands it to the
// executor (exec.Versioned): a statement over the base schema reads each
// stored tuple through Slot at the reader's version, whichever executor runs
// it.
type stored struct {
	*db.Table
	versions *exec.CompileOptions
}

func newStored(e *ExtTable, tbl *db.Table) *stored {
	return &stored{tbl, &exec.CompileOptions{
		Slots:  e.L.Off,
		Select: func(t catalog.Tuple, vn int64) (int, bool) { return e.Slot(t, VN(vn)) },
	}}
}

// Versions implements exec.Versioned.
func (t *stored) Versions() *exec.CompileOptions { return t.versions }

// CurrentVersion reconstructs the latest tuple state (what the maintenance
// transaction reads — it always follows the first row of Table 1, §3.3).
// visible is false for logically-deleted tuples.
func (e *ExtTable) CurrentVersion(t catalog.Tuple) (base catalog.Tuple, visible bool) {
	if e.OpAt(t, 1) == OpDelete {
		return nil, false
	}
	return e.BaseValues(t), true
}
