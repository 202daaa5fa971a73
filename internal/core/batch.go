package core

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/catalog"
)

// DeltaOp names the logical operation of one batch delta.
type DeltaOp int

const (
	DeltaInsert DeltaOp = iota
	DeltaUpdate
	DeltaDelete
)

func (op DeltaOp) String() string {
	switch op {
	case DeltaInsert:
		return "insert"
	case DeltaUpdate:
		return "update"
	case DeltaDelete:
		return "delete"
	default:
		return fmt.Sprintf("DeltaOp(%d)", int(op))
	}
}

// Delta is one logical operation of a maintenance batch, in data-only
// form: the target is named by unique key rather than by callback, so a
// batch can cross the wire and the shard router can route it.
type Delta struct {
	Table string
	Op    DeltaOp
	// Row is the full base tuple: the inserted row for DeltaInsert, the
	// complete new row for DeltaUpdate (non-updatable columns must keep
	// their current values, as in UpdateKey). Unused for DeltaDelete.
	Row catalog.Tuple
	// Key is the unique key of the target tuple for DeltaUpdate and
	// DeltaDelete. Unused for DeltaInsert, whose key comes from Row.
	Key catalog.Tuple
}

// BatchStats reports what one ApplyBatch call did.
type BatchStats struct {
	Deltas  int // deltas submitted
	Applied int // deltas folded into a tuple per Tables 2–4
	Missing int // updates/deletes whose key had no live tuple (skipped)
}

// ApplyBatch applies a batch of logical operations in submission order on
// the caller's goroutine. Each delta folds through Tables 2–4 exactly as the
// matching Insert, UpdateKey or DeleteKey call would, so multi-touch net
// effects (the tables' second rows) are preserved: the property the
// differential suite in batch_test.go pins.
//
// The whole batch is checked before its first write: an unknown table, an
// unknown operation, or an update or delete of a keyless table refuses it
// and leaves the transaction as it was. A delta that fails after that stops
// the batch and poisons the transaction: Commit refuses and the caller must
// Rollback.
func (m *Maintenance) ApplyBatch(deltas []Delta) (BatchStats, error) {
	if err := m.checkActive(); err != nil {
		return BatchStats{}, err
	}
	if m.broken != nil {
		return BatchStats{}, fmt.Errorf("core: batch refused after a failed write: %w", m.broken)
	}
	start := time.Now()
	stats := BatchStats{Deltas: len(deltas)}
	vts := make([]*VTable, len(deltas))
	for i, d := range deltas {
		vt, err := m.table(d.Table)
		if err != nil {
			return stats, err
		}
		if err := checkDelta(vt.ext.Base, d); err != nil {
			return stats, err
		}
		vts[i] = vt
	}
	mm := m.met()
	mm.batchApplies.Inc()
	mm.batchDeltas.Add(int64(len(deltas)))
	defer mm.batchNS.ObserveSince(start)
	// One watermark recompute per batch, after the last write.
	defer m.store.settleOldestHW()
	for i, d := range deltas {
		ok, err := m.ap.applyDelta(vts[i], d)
		if err != nil {
			if m.broken == nil {
				m.broken = err
			}
			return stats, err
		}
		if ok {
			stats.Applied++
		} else {
			stats.Missing++
		}
	}
	return stats, nil
}

// ApplyBatchSeq is ApplyBatch. It remains for the end-to-end benchmark
// module, which calls it by this name.
func (m *Maintenance) ApplyBatchSeq(deltas []Delta) (BatchStats, error) { return m.ApplyBatch(deltas) }

// checkDelta refuses a delta that no store can apply: an unknown operation,
// or an update or delete of a keyless table, which has no key to name its
// target.
func checkDelta(base *catalog.Schema, d Delta) error {
	switch d.Op {
	case DeltaInsert:
		return nil
	case DeltaUpdate, DeltaDelete:
		if !base.HasKey() {
			return fmt.Errorf("core: batch %s of keyless table %s has no key; use an UPDATE or DELETE statement through Exec", d.Op, base.Name)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown batch delta operation %v", d.Op)
	}
}

// PartitionDelta is the shard router's partitioning rule: it routes one
// delta to a partition in [0, parts) by the (table, unique key) hash, with
// i (the delta's batch index) breaking the tie for keyless inserts. Every
// operation on one (table, key) pair lands in the same partition, so each
// shard folds its share of the batch in submission order. It refuses what
// ApplyBatch refuses.
func PartitionDelta(base *catalog.Schema, d Delta, i, parts int) (int, error) {
	if err := checkDelta(base, d); err != nil {
		return 0, err
	}
	key := d.Key
	if d.Op == DeltaInsert {
		if !base.HasKey() || len(d.Row) != len(base.Columns) {
			// Keyless inserts cannot conflict with anything (and a
			// wrong-arity row is rejected by the applier wherever it runs):
			// spread them round-robin.
			return i % parts, nil
		}
		key = base.KeyOf(d.Row)
	}
	h := fnv.New64a()
	h.Write([]byte(base.Name))
	return int((h.Sum64() ^ catalog.HashTuple(coerceKey(base, key))) % uint64(parts)), nil
}

// coerceKey normalizes key values to the key columns' declared types, so
// two spellings of one key (an Int and a coercible Float, say) hash to the
// same partition — matching the equality the engine's key index applies.
// Values that do not coerce are hashed raw; they cannot match a live tuple,
// so their partition only needs to be deterministic.
func coerceKey(base *catalog.Schema, key catalog.Tuple) catalog.Tuple {
	if len(key) != len(base.Key) {
		return key
	}
	out := make(catalog.Tuple, len(key))
	for i, v := range key {
		out[i] = v
		if v.IsNull() {
			continue
		}
		if cv, err := catalog.Coerce(v, base.Columns[base.Key[i]].Type); err == nil {
			out[i] = cv
		}
	}
	return out
}

// applyDelta applies one checked delta, mirroring Insert, UpdateKey and
// DeleteKey exactly: updates and deletes of a key with no live tuple are
// skipped, not errors.
func (a *applier) applyDelta(vt *VTable, d Delta) (bool, error) {
	if d.Op == DeltaInsert {
		return true, a.insert(vt, d.Row)
	}
	rid, ext, found, err := vt.lookupKey(d.Key)
	if !found {
		return false, err
	}
	if _, visible := vt.ext.CurrentVersion(ext); !visible {
		return false, nil
	}
	if d.Op == DeltaUpdate {
		return true, a.applyUpdate(vt, rid, ext, d.Row)
	}
	return true, a.applyDelete(vt, rid, ext)
}
