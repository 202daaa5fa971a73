package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
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

// Delta is one logical operation of a maintenance batch, in the data-only
// form ApplyBatch can hash-partition: the target is named by unique key
// rather than by callback, so two deltas touching the same tuple are
// routable to the same partition.
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
	// Partitions and Workers record the actual fan-out: one partition per
	// worker, after clamping to the batch size.
	Partitions int
	Workers    int
}

func (s *MaintStats) add(o MaintStats) {
	s.LogicalInserts += o.LogicalInserts
	s.LogicalUpdates += o.LogicalUpdates
	s.LogicalDeletes += o.LogicalDeletes
	s.PhysicalInserts += o.PhysicalInserts
	s.PhysicalUpdates += o.PhysicalUpdates
	s.PhysicalDeletes += o.PhysicalDeletes
	s.NetEffectFolds += o.NetEffectFolds
}

// routedDelta is a delta with its table resolved once during routing.
type routedDelta struct {
	d  Delta
	vt *VTable
}

// ApplyBatch applies a batch of logical operations with the store's
// configured worker count (Options.ApplyWorkers; 0 = GOMAXPROCS).
//
// The batch is hash-partitioned by (table, unique key) so that every
// operation on one tuple lands in the same partition, in submission order.
// Partitions apply concurrently; within a partition the Tables 2–4 folding
// runs exactly as the sequential Insert/UpdateKey/DeleteKey calls would, so
// multi-touch net effects (second rows of Tables 2–4) are preserved. The
// outcome is observationally identical to ApplyBatchSeq on the same batch —
// the property pinned by the differential suite in parallel_diff_test.go.
//
// On a worker error the batch stops early and the transaction is poisoned:
// Commit refuses and the caller must Rollback. A failed parallel batch may
// have journaled a physical delete that never executed (see
// applier.physDelete), so the abort record written by Rollback is what keeps
// recovery consistent.
func (m *Maintenance) ApplyBatch(deltas []Delta) (BatchStats, error) {
	return m.ApplyBatchWorkers(deltas, m.store.applyWorkers)
}

// ApplyBatchSeq applies the batch strictly sequentially on the caller's
// goroutine — the oracle the parallel path is differentially tested
// against. It shares the routing step with ApplyBatchWorkers, and applying
// its single partition is identical to a loop of Insert/UpdateKey/DeleteKey
// calls.
func (m *Maintenance) ApplyBatchSeq(deltas []Delta) (BatchStats, error) {
	return m.ApplyBatchWorkers(deltas, 1)
}

// ApplyBatchWorkers is ApplyBatch with an explicit worker count. workers <=
// 0 selects GOMAXPROCS; 1 is the sequential path; the count is clamped to
// the batch size.
func (m *Maintenance) ApplyBatchWorkers(deltas []Delta, workers int) (BatchStats, error) {
	if err := m.checkActive(); err != nil {
		return BatchStats{}, err
	}
	if m.broken != nil {
		return BatchStats{}, fmt.Errorf("core: batch refused after a failed write: %w", m.broken)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(deltas)), 1)
	start := time.Now()
	stats := BatchStats{Deltas: len(deltas), Partitions: workers, Workers: workers}
	parts, err := m.route(deltas, workers)
	if err != nil {
		return stats, err
	}
	mm := m.met()
	mm.batchApplies.Inc()
	mm.batchDeltas.Add(int64(len(deltas)))
	defer mm.batchNS.ObserveSince(start)
	// One watermark recompute per batch, after the last write, on either
	// path: by then this goroutine is the single writer again.
	defer m.store.settleOldestHW()
	if workers == 1 {
		for _, rd := range parts[0] {
			ok, err := m.ap.applyDelta(rd.vt, rd.d)
			if err != nil {
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
	return m.applyParallel(parts, stats)
}

// applyParallel runs one goroutine per partition, each on a private
// applier, and merges the appliers into the transaction root after the
// join.
func (m *Maintenance) applyParallel(parts [][]routedDelta, stats BatchStats) (BatchStats, error) {
	workers := len(parts)
	appliers := make([]*applier, workers)
	applied := make([]int, workers)
	missing := make([]int, workers)
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
		panicked any
	)
	// The journal is captured once, outside the worker loop: workers must
	// never touch the store latch (a per-op journalOrNil would serialize
	// them on it, and holding it from a pool goroutine would violate the §3
	// latch discipline vnlvet enforces).
	j := m.store.journalOrNil()
	for w := range parts {
		a := &applier{m: m, par: true, j: j}
		appliers[w] = a
		wg.Add(1)
		go func(w int, a *applier) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errMu.Lock()
					if panicked == nil {
						panicked = r
					}
					errMu.Unlock()
					stop.Store(true)
				}
			}()
			if m.batchPartStart != nil {
				m.batchPartStart(w)
			}
			if m.batchPartDone != nil {
				defer m.batchPartDone(w)
			}
			for _, rd := range parts[w] {
				if stop.Load() {
					return
				}
				ok, err := a.applyDelta(rd.vt, rd.d)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
				if ok {
					applied[w]++
				} else {
					missing[w]++
				}
			}
		}(w, a)
	}
	wg.Wait()
	// Merge worker state into the root applier before any error handling:
	// Rollback and a later batch's delete must see every overwritten
	// tombstone even when the batch failed, and Stats/Commit read the
	// root's counters. Same-key operations share a partition, so merge
	// order does not matter.
	for w, a := range appliers {
		m.ap.stats.add(a.stats)
		for ref, img := range a.tombstones {
			if m.ap.tombstones == nil {
				m.ap.tombstones = make(map[tupleRef]catalog.Tuple)
			}
			m.ap.tombstones[ref] = img
		}
		stats.Applied += applied[w]
		stats.Missing += missing[w]
	}
	if panicked != nil {
		// A worker panicked — in the fault-injection harness this is an
		// injected crash point that must unwind the caller, not the pool
		// goroutine. Re-raise with the original value so vfs.Recovering
		// still recognizes it.
		panic(panicked)
	}
	if firstErr != nil {
		m.broken = firstErr
		return stats, firstErr
	}
	return stats, nil
}

// route resolves each delta's table and splits the batch into parts
// hash-partitions, preserving submission order within each partition.
func (m *Maintenance) route(deltas []Delta, parts int) ([][]routedDelta, error) {
	vts := make(map[string]*VTable)
	out := make([][]routedDelta, parts)
	for i, d := range deltas {
		vt, ok := vts[d.Table]
		if !ok {
			var err error
			vt, err = m.table(d.Table)
			if err != nil {
				return nil, err
			}
			vts[d.Table] = vt
		}
		p, err := partitionOf(vt, d, i, parts)
		if err != nil {
			return nil, err
		}
		out[p] = append(out[p], routedDelta{d: d, vt: vt})
	}
	return out, nil
}

// partitionOf routes one delta. All operations on one (table, key) pair map
// to the same partition — the invariant that lets partitions run
// concurrently without reordering any tuple's Tables 2–4 sequence.
func partitionOf(vt *VTable, d Delta, i, parts int) (int, error) {
	return PartitionDelta(vt.ext.Base, d, i, parts)
}

// PartitionDelta is the batch partitioning rule, exported for the shard
// router: it routes one delta to a partition in [0, parts) by the
// (table, unique key) hash, with i (the delta's batch index) breaking the
// tie for keyless inserts. The shard router and the in-store worker
// fan-out share this single function, so a delta lands on the same shard
// the parallel applier would have picked — the property the sharded ≡
// single-store differential suite leans on.
func PartitionDelta(base *catalog.Schema, d Delta, i, parts int) (int, error) {
	var key catalog.Tuple
	switch d.Op {
	case DeltaInsert:
		if !base.HasKey() || len(d.Row) != len(base.Columns) {
			// Keyless inserts cannot conflict with anything (and a
			// wrong-arity row is rejected by the applier wherever it runs):
			// spread them round-robin.
			return i % parts, nil
		}
		key = coerceKey(base, base.KeyOf(d.Row))
	case DeltaUpdate, DeltaDelete:
		if !base.HasKey() {
			return 0, fmt.Errorf("core: batch %s of keyless table %s needs UpdateWhere/DeleteWhere", d.Op, base.Name)
		}
		key = coerceKey(base, d.Key)
	default:
		return 0, fmt.Errorf("core: unknown batch delta operation %v", d.Op)
	}
	h := fnv.New64a()
	h.Write([]byte(base.Name))
	return int((h.Sum64() ^ catalog.HashTuple(key)) % uint64(parts)), nil
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

// applyDelta applies one routed delta, mirroring the sequential
// Insert/UpdateKey/DeleteKey paths exactly: updates and deletes of a key
// with no live tuple are skipped, not errors.
func (a *applier) applyDelta(vt *VTable, d Delta) (bool, error) {
	switch d.Op {
	case DeltaInsert:
		return true, a.insert(vt, d.Row)
	case DeltaUpdate, DeltaDelete:
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
	default:
		return false, fmt.Errorf("core: unknown batch delta operation %v", d.Op)
	}
}
