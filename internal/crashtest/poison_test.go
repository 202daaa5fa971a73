package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// The poisoned-batch sweep. A heap write-back fault part-way through a batch
// poisons its transaction; the first Rollback meets a failing write-back of
// its own and fails, and its retry succeeds. The sweep crashes at every
// persisting I/O boundary from the batch's fault on, and recovery must land
// on the commit point before the poisoned transaction.

// poisonScript is a fault plan for one poisoned run: the sweep's crash point
// plus write faults at the given persisting-op indexes.
func poisonScript(crashAt int, faults ...int) *vfs.Script {
	s := vfs.NewScript()
	s.CrashAt = crashAt
	for _, op := range faults {
		s.AddFault(op, vfs.FaultErr, 0)
	}
	return s
}

// poisonRun drives the poisoned-batch workload on fs, crashing before
// persisting op crashAt (0: never). VN 2 loads dim rows over several heap
// pages; VN 3 updates some and deletes others. Transaction VN 4 applies one
// batch whose sixth heap write-back fails, part-way through it. Its Commit
// must refuse, its first Rollback fails on its write-backs, and the retried
// Rollback succeeds and must leave the store at VN 3's state. A GC pass then
// forces the log, so the aborted transaction's records are on disk, and
// closing the log ends the run. Every fault sits at an op index the run
// computes from its own op count, which is the same in every run up to its
// crash. It returns the op index of the batch's fault.
func poisonRun(cfg Config, fs *vfs.FaultFS, crashAt int, st *runState) (int, error) {
	w := &worker{fs: fs, st: st, cur: newModel(), rng: rand.New(rand.NewSource(cfg.Seed))}
	st.snapshots = map[core.VN]model{1: w.cur.clone()}
	st.acked = 1
	fs.SetScript(poisonScript(crashAt))

	engine := db.Open(db.Options{DataFS: fs, DataDir: "data", PoolPages: cfg.PoolPages, PageSize: 256})
	store, err := core.Open(engine, core.Options{N: cfg.N})
	if err != nil {
		return 0, err
	}
	w.store = store
	log, err := wal.CreateFS(fs, walPath, wal.PolicyRedoOnly)
	if err != nil {
		return 0, err
	}
	log.SetRetry(vfs.RetryPolicy{Sleep: func(time.Duration) {}}.Normalize())
	w.log = log
	store.SetJournal(log)
	if _, err := store.CreateTable(dimSchema()); err != nil {
		return 0, err
	}
	if err := w.txn(func(m *core.Maintenance, pend model) error {
		for k := int64(1); k <= 24; k++ {
			row := dimRow(k, 10*k, fmt.Sprintf("n%d", k))
			if err := m.Insert("dim", row); err != nil {
				return err
			}
			pend.put("dim", row)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if err := w.txn(func(m *core.Maintenance, pend model) error {
		for k := int64(1); k <= 24; k += 2 {
			row := dimRow(k, 11*k, "h")
			if _, err := m.UpdateKey("dim", intKey(k), func(catalog.Tuple) catalog.Tuple { return row }); err != nil {
				return err
			}
			pend.put("dim", row)
		}
		for k := int64(20); k <= 24; k += 2 {
			if _, err := m.DeleteKey("dim", intKey(k)); err != nil {
				return err
			}
			pend.delete("dim", k)
		}
		return nil
	}); err != nil {
		return 0, err
	}

	// VN 4, the poisoned transaction: updates of every key (the deleted
	// ones are legal skips), deletes, and fresh inserts.
	var deltas []core.Delta
	for k := int64(1); k <= 24; k++ {
		deltas = append(deltas, core.Delta{Table: "dim", Op: core.DeltaUpdate, Row: dimRow(k, 12*k, "p"), Key: intKey(k)})
		if k%5 == 0 {
			deltas = append(deltas, core.Delta{Table: "dim", Op: core.DeltaDelete, Key: intKey(k)})
		}
		deltas = append(deltas, core.Delta{Table: "dim", Op: core.DeltaInsert, Row: dimRow(100+k, k, "f")})
	}
	m, err := store.BeginMaintenance()
	if err != nil {
		return 0, err
	}
	poisonAt := fs.PersistOps() + 6
	fs.SetScript(poisonScript(crashAt, poisonAt))
	stats, err := m.ApplyBatch(deltas)
	switch {
	case err == nil:
		return poisonAt, fmt.Errorf("crashtest: the batch survived its write-back fault at op %d", poisonAt)
	case !errors.Is(err, vfs.ErrInjected):
		return poisonAt, fmt.Errorf("crashtest: the batch failed on %w, not on its write-back fault", err)
	case stats.Applied == 0 || stats.Applied+stats.Missing >= len(deltas):
		return poisonAt, fmt.Errorf("crashtest: the fault stopped the batch after %d of %d deltas, not part-way", stats.Applied+stats.Missing, len(deltas))
	}
	if err := m.Commit(); err == nil {
		return poisonAt, errors.New("crashtest: Commit accepted a poisoned transaction")
	}
	// Every write-back of the first Rollback fails (a scan drops a failed
	// write-back of the page it evicts, so one fault alone may not surface);
	// the retry runs on healthy hardware again.
	revertAt := fs.PersistOps() + 1
	revertFaults := poisonScript(crashAt, poisonAt).AddFaultRange(revertAt, revertAt+1000, vfs.FaultErr)
	fs.SetScript(revertFaults)
	if err := m.Rollback(); !errors.Is(err, vfs.ErrInjected) {
		return poisonAt, fmt.Errorf("crashtest: Rollback under write-back faults from op %d = %v, want the fault", revertAt, err)
	}
	if fs.PersistOps() < revertAt {
		return poisonAt, errors.New("crashtest: the failed Rollback wrote nothing back")
	}
	fs.SetScript(poisonScript(crashAt, poisonAt))
	if err := m.Rollback(); err != nil {
		return poisonAt, fmt.Errorf("crashtest: retried Rollback: %w", err)
	}
	if err := checkOracle(store, w.cur, st.acked); err != nil {
		return poisonAt, fmt.Errorf("crashtest: after the retried Rollback: %w", err)
	}
	if gc := store.GC(); gc.Err != nil || gc.Removed == 0 {
		return poisonAt, fmt.Errorf("crashtest: GC after the rollback removed %d tuples, err %v", gc.Removed, gc.Err)
	}
	return poisonAt, log.Close()
}

// TestPoisonedBatchCrashSweep runs the poisoned-batch workload once without
// a crash, then crashes it before every persisting op from the batch's fault
// on, and validates recovery after each run: it must land on VN 3, with the
// scan oracle and the store's invariants intact.
func TestPoisonedBatchCrashSweep(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			cfg := Config{N: n}.normalize()
			fs := vfs.NewFaultFS(nil)
			st := &runState{}
			poisonAt, err := poisonRun(cfg, fs, 0, st)
			if err != nil {
				t.Fatal(err)
			}
			total := fs.PersistOps()
			if st.acked != 3 {
				t.Fatalf("acknowledged VN %d before the poisoned transaction, want 3", st.acked)
			}
			if err := validate(cfg, fs, st, false); err != nil {
				t.Fatalf("crash-free run: %v", err)
			}
			for at := poisonAt; at <= total; at++ {
				fs := vfs.NewFaultFS(nil)
				st := &runState{}
				crash, err := vfs.Recovering(func() error {
					_, err := poisonRun(cfg, fs, at, st)
					return err
				})
				if crash == nil {
					t.Fatalf("crash point %d of %d never fired (err %v)", at, total, err)
				}
				if err != nil && !strings.Contains(err.Error(), errStopped.Error()) {
					t.Fatalf("crash point %d: workload: %v", at, err)
				}
				if err := validate(cfg, fs, st, false); err != nil {
					t.Fatalf("crash point %d (%s): %v", at, crash.Site, err)
				}
			}
			t.Logf("%d crash points from op %d", total-poisonAt+1, poisonAt)
		})
	}
}
