// Package crashtest is the deterministic crash-and-recovery checker for
// the 2VNL engine: it drives a scripted maintenance workload covering the
// paper's Tables 2–4 decision cells — with a reader session open across
// maintenance, GC, a checkpoint, and an aborted transaction — over the
// fault-injecting filesystem in internal/vfs, then simulates a crash at
// every persisting-I/O boundary (WAL appends, fsyncs, file
// creates/renames), power-cuts the filesystem, recovers from the WAL, the
// only file recovery reads, and asserts the durability invariants §7's logless
// argument promises:
//
//   - the recovered currentVN is exactly the version of some
//     pre-crash commit point (atomicity: committed transactions are
//     wholly present, in-flight ones wholly absent);
//   - absent lying fsyncs, the recovered VN is at least the last commit
//     the engine acknowledged (durability of acknowledged commits);
//   - a post-recovery reader session sees exactly the logical state the
//     oracle recorded at that commit point;
//   - every tuple's slot bookkeeping satisfies the Table 1 structural
//     invariants (core.Store.CheckInvariants);
//   - the recovered store accepts and commits new maintenance work.
//
// The package deliberately imports no testing machinery, so cmd/vnlcrash
// can run the same sweep from the command line and CI.
package crashtest

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Config parameterizes a sweep.
type Config struct {
	// Seed drives the randomized tail of the workload. The same seed and
	// script give a byte-identical I/O sequence.
	Seed int64
	// N is the version count (0 or 2 → 2VNL).
	N int
	// Script is the base fault plan applied to every run (the sweep adds
	// the crash point). Nil means fault-free.
	Script *vfs.Script
	// Shards, when the config drives ShardSweep, is the shard-router fan-out
	// width. 0 selects 4. The single-store sweeps ignore it.
	Shards int
	// SkipCheckpoint elides the mid-workload checkpoint. Replication
	// followers identify log bytes by file offset, and a checkpoint
	// rewrites the file — in production that is an epoch bump forcing a
	// replica rebuild — so the replication suites run the workload with
	// only appends.
	SkipCheckpoint bool

	// onJournal and onCommit are the replication suites' observation
	// hooks, set by RunPrimary: the former hands out the live *wal.Log so
	// a feed can serve it, the latter fires after each acknowledged
	// commit so a tailing replica can be checked at that exact VN.
	onJournal func(*wal.Log)
	onCommit  func(vn core.VN) error
}

func (c Config) normalize() Config {
	if c.N == 0 {
		c.N = 2
	}
	if c.Script == nil {
		c.Script = vfs.NewScript()
	}
	return c
}

// Report summarizes a sweep.
type Report struct {
	// PersistOps is the fault-free run's total persisting-I/O count — the
	// number of crash points swept.
	PersistOps int
	// Points is how many crash points were actually exercised.
	Points int
	// Commits is the number of acknowledged workload commits in the
	// fault-free run.
	Commits int
	// FaultStops counts runs in which a surfaced injected fault ended the
	// workload early (expected under fault scripts; always 0 without).
	FaultStops int
	// FailScript, on error, is the exact vfs script (crash point
	// included) that reproduces the failing run — ready to check in as a
	// regression pin or upload as a CI artifact.
	FailScript string
}

const walPath = "data/wal.log"

// model is the logical-state oracle: table → key → base tuple. It is
// maintained in plain Go alongside the engine ops, so recovery can be
// checked against something that never touched the engine's code paths.
type model map[string]map[int64]catalog.Tuple

func newModel() model {
	return model{"dim": {}, "fact": {}}
}

func (mo model) clone() model {
	out := make(model, len(mo))
	for tbl, rows := range mo {
		m := make(map[int64]catalog.Tuple, len(rows))
		for k, t := range rows {
			m[k] = t.Clone()
		}
		out[tbl] = m
	}
	return out
}

func (mo model) put(table string, t catalog.Tuple) { mo[table][t[0].Int()] = t.Clone() }

func (mo model) update(table string, k int64, set func(catalog.Tuple) catalog.Tuple) {
	if cur, ok := mo[table][k]; ok {
		mo[table][k] = set(cur.Clone()).Clone()
	}
}

func (mo model) delete(table string, k int64) { delete(mo[table], k) }

func dimSchema() *catalog.Schema {
	return catalog.MustSchema("dim", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
		{Name: "note", Type: catalog.TypeString, Length: 16, Updatable: true},
	}, "k")
}

func factSchema() *catalog.Schema {
	return catalog.MustSchema("fact", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "qty", Type: catalog.TypeInt, Length: 8, Updatable: true},
		{Name: "amt", Type: catalog.TypeFloat, Length: 8, Updatable: true},
	}, "k")
}

func dimRow(k, v int64, note string) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v), catalog.NewString(note)}
}

func factRow(k, qty int64, amt float64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(qty), catalog.NewFloat(amt)}
}

func intKey(k int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k)} }

// runState is everything the post-crash validator needs. It lives outside
// the workload function so a crash panic cannot take it down.
type runState struct {
	// snapshots[vn] is the logical state the database holds if (and only
	// if) vn is the highest durably-committed version. snapshots[1] is
	// the empty pre-history state.
	snapshots map[core.VN]model
	// acked is the highest VN whose Commit returned nil to the workload.
	acked core.VN
	// commits counts acknowledged commits.
	commits int
	// faultStopped is set when a surfaced injected fault ended the
	// workload early (the run is still validated at whatever point it
	// reached).
	faultStopped bool
}

// worker drives one workload run.
type worker struct {
	fs       *vfs.FaultFS
	store    *core.Store
	log      *wal.Log
	cur      model
	st       *runState
	rng      *rand.Rand
	onCommit func(core.VN) error
}

// errStopped distinguishes "the workload ended early on a surfaced
// injected fault" from a genuine harness failure.
var errStopped = fmt.Errorf("crashtest: workload stopped on surfaced fault")

func (w *worker) stop(err error) error {
	w.st.faultStopped = true
	return fmt.Errorf("%w: %v", errStopped, err)
}

// txn runs one maintenance transaction: build mutates both the engine (via
// m) and the pending model copy (via the worker helpers); txn snapshots the
// pending state under the transaction's VN just before Commit, and
// promotes it on acknowledgement.
func (w *worker) txn(build func(m *core.Maintenance, pend model) error) error {
	vn := w.store.CurrentVN() + 1
	m, err := w.store.BeginMaintenance()
	if err != nil {
		return w.stop(err)
	}
	pend := w.cur.clone()
	if err := build(m, pend); err != nil {
		// A surfaced mid-transaction fault: nothing committed. Roll the
		// engine back and end the workload; the model keeps the
		// pre-transaction state, matching the no-commit outcome.
		_ = m.Rollback()
		return w.stop(err)
	}
	// The snapshot precedes Commit deliberately: the commit record may
	// reach stable storage even when the engine observes an error (or
	// crashes), so "VN vn is the last durable commit" must be a state the
	// validator recognizes regardless of the acknowledgement.
	w.st.snapshots[vn] = pend.clone()
	if err := m.Commit(); err != nil {
		return w.stop(err)
	}
	w.cur = pend
	w.st.acked = vn
	w.st.commits++
	if w.onCommit != nil {
		if err := w.onCommit(vn); err != nil {
			return fmt.Errorf("crashtest: onCommit hook at VN %d: %w", vn, err)
		}
	}
	return nil
}

// run executes the scripted workload. Any returned error wrapping
// errStopped is an expected early stop under fault scripts; other errors
// are harness bugs. A *vfs.CrashPoint panic escapes to the caller.
func run(cfg Config, fs *vfs.FaultFS, st *runState) error {
	w := &worker{fs: fs, st: st, cur: newModel(), rng: rand.New(rand.NewSource(cfg.Seed)), onCommit: cfg.onCommit}
	st.snapshots = map[core.VN]model{1: w.cur.clone()}
	st.acked = 1

	engine := db.Open(db.Options{PageSize: 256})
	store, err := core.Open(engine, core.Options{N: cfg.N})
	if err != nil {
		return err
	}
	w.store = store
	log, err := wal.CreateFS(fs, walPath, wal.PolicyRedoOnly)
	if err != nil {
		return w.stop(err)
	}
	log.SetRetry(vfs.RetryPolicy{Sleep: func(time.Duration) {}}.Normalize())
	w.log = log
	store.SetJournal(log)
	if cfg.onJournal != nil {
		cfg.onJournal(log)
	}
	if _, err := store.CreateTable(dimSchema()); err != nil {
		return w.stop(err)
	}
	if _, err := store.CreateTable(factSchema()); err != nil {
		return w.stop(err)
	}

	// VN 2: initial load (Table 2 row 3 — inserts of new tuples).
	if err := w.txn(func(m *core.Maintenance, pend model) error {
		// Keys 5–6 are reserved for VN 3's insert cells; the filler rows
		// (101+) spread the heap over several pages.
		for _, k := range []int64{1, 2, 3, 4, 101, 102, 103, 104} {
			row := dimRow(k, 10*k, fmt.Sprintf("n%d", k))
			if err := m.Insert("dim", row); err != nil {
				return err
			}
			pend.put("dim", row)
		}
		for k := int64(1); k <= 6; k++ {
			row := factRow(k, k, float64(k)/2)
			if err := m.Insert("fact", row); err != nil {
				return err
			}
			pend.put("fact", row)
		}
		return nil
	}); err != nil {
		return err
	}

	// A reader session stays open across the next maintenance
	// transaction, pinning pre-update versions the way §2.1's long
	// sessions do.
	sess := w.store.BeginSession()

	upd := func(m *core.Maintenance, pend model, table string, k int64, set func(catalog.Tuple) catalog.Tuple) error {
		if _, err := m.UpdateKey(table, intKey(k), set); err != nil {
			return err
		}
		pend.update(table, k, set)
		return nil
	}
	del := func(m *core.Maintenance, pend model, table string, k int64) error {
		if _, err := m.DeleteKey(table, intKey(k)); err != nil {
			return err
		}
		pend.delete(table, k)
		return nil
	}
	ins := func(m *core.Maintenance, pend model, table string, row catalog.Tuple) error {
		if err := m.Insert(table, row); err != nil {
			return err
		}
		pend.put(table, row)
		return nil
	}
	setV := func(v int64) func(catalog.Tuple) catalog.Tuple {
		return func(t catalog.Tuple) catalog.Tuple {
			t[1] = catalog.NewInt(v)
			return t
		}
	}

	// VN 3: every multi-touch cell — first-touch update (T3R1), repeated
	// update (T4R2/update), first-touch delete (T3R2→T4R1 family),
	// insert+update+delete of the same tuple in one transaction
	// (T4R1, T4R2/ins), and a plain insert that survives.
	if err := w.txn(func(m *core.Maintenance, pend model) error {
		if err := upd(m, pend, "dim", 1, setV(111)); err != nil {
			return err
		}
		if err := upd(m, pend, "dim", 1, setV(112)); err != nil {
			return err
		}
		if err := del(m, pend, "dim", 2); err != nil {
			return err
		}
		if err := ins(m, pend, "dim", dimRow(5, 50, "n5")); err != nil {
			return err
		}
		if err := upd(m, pend, "dim", 5, setV(55)); err != nil {
			return err
		}
		if err := del(m, pend, "dim", 5); err != nil {
			return err
		}
		if err := ins(m, pend, "dim", dimRow(6, 60, "n6")); err != nil {
			return err
		}
		if err := upd(m, pend, "fact", 1, func(t catalog.Tuple) catalog.Tuple {
			t[2] = catalog.NewFloat(t[2].Float() + 1.5)
			return t
		}); err != nil {
			return err
		}
		return del(m, pend, "fact", 3)
	}); err != nil {
		sess.Close()
		return err
	}

	// VN 4: re-insert over a tuple deleted by an *earlier* transaction
	// (Table 2 row 1), then delete it again in the same transaction
	// (Table 4 row 2 over a prior insert).
	if err := w.txn(func(m *core.Maintenance, pend model) error {
		if err := ins(m, pend, "dim", dimRow(2, 22, "re")); err != nil {
			return err
		}
		if err := del(m, pend, "dim", 2); err != nil {
			return err
		}
		return upd(m, pend, "dim", 4, setV(444))
	}); err != nil {
		sess.Close()
		return err
	}

	sess.Close()

	// GC journals its physical deletes as a VN-0 pseudo-transaction;
	// its commit is another faultable sync boundary. An injected-fault
	// failure here surfaces via stats.Err and stops the run.
	if gcStats := w.store.GC(); gcStats.Err != nil {
		return w.stop(gcStats.Err)
	}

	// Checkpoint: close the live journal, rewrite the log compactly,
	// reopen it for appending, reinstall. A crash anywhere in the middle
	// must land on either the full history or the checkpoint, never a
	// mixture (the FS-level rename is atomic). Elided under
	// SkipCheckpoint: a replication stream identifies bytes by offset, so
	// the rewrite would be an epoch bump, not a transparent event.
	if !cfg.SkipCheckpoint {
		w.store.SetJournal(nil)
		if err := w.log.Close(); err != nil {
			return w.stop(err)
		}
		if _, err := wal.CheckpointFS(fs, w.store, walPath); err != nil {
			return w.stop(err)
		}
		log2, err := wal.AppendFS(fs, walPath, wal.PolicyRedoOnly)
		if err != nil {
			return w.stop(err)
		}
		log2.SetRetry(vfs.RetryPolicy{Sleep: func(time.Duration) {}}.Normalize())
		w.log = log2
		w.store.SetJournal(log2)
		if cfg.onJournal != nil {
			cfg.onJournal(log2)
		}
	}

	// An aborted transaction: its records reach the log but no commit
	// ever will; recovery must skip it wholesale (§7: no undo needed).
	m, err := w.store.BeginMaintenance()
	if err != nil {
		return w.stop(err)
	}
	abortFailed := false
	for _, step := range []func() error{
		func() error { return m.Insert("dim", dimRow(7, 70, "doom")) },
		func() error { _, err := m.UpdateKey("dim", intKey(1), setV(999)); return err },
		func() error { _, err := m.DeleteKey("dim", intKey(3)); return err },
	} {
		if err := step(); err != nil {
			abortFailed = true
			break
		}
	}
	if err := m.Rollback(); err != nil || abortFailed {
		if err == nil {
			err = fmt.Errorf("crashtest: aborted-transaction step failed")
		}
		return w.stop(err)
	}

	// VN 5: the seeded tail — a random mix over a small key range keeps
	// every sweep point exercising slightly different page traffic.
	if err := w.txn(func(m *core.Maintenance, pend model) error {
		for i, n := 0, 6+w.rng.Intn(5); i < n; i++ {
			k := int64(10 + w.rng.Intn(8))
			switch _, exists := pend["dim"][k]; {
			case !exists:
				if err := ins(m, pend, "dim", dimRow(k, k*100, "r")); err != nil {
					return err
				}
			case w.rng.Intn(3) == 0:
				if err := del(m, pend, "dim", k); err != nil {
					return err
				}
			default:
				if err := upd(m, pend, "dim", k, setV(w.rng.Int63n(1000))); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// VN 6: a batched tail applied through ApplyBatch, the production write
	// path (the wire's batches and every Exec fold through it). The batch
	// is built against the pending model so it is legal in submission
	// order (no insert of a live key); updates and deletes of missing keys
	// are deliberate legal skips.
	if err := w.txn(func(m *core.Maintenance, pend model) error {
		var deltas []core.Delta
		for i, n := 0, 14+w.rng.Intn(6); i < n; i++ {
			k := int64(20 + w.rng.Intn(10))
			switch _, exists := pend["dim"][k]; {
			case !exists:
				row := dimRow(k, k*7, "p")
				deltas = append(deltas, core.Delta{Table: "dim", Op: core.DeltaInsert, Row: row})
				pend.put("dim", row)
			case w.rng.Intn(3) == 0:
				deltas = append(deltas, core.Delta{Table: "dim", Op: core.DeltaDelete, Key: intKey(k)})
				pend.delete("dim", k)
			default:
				row := pend["dim"][k].Clone()
				row[1] = catalog.NewInt(w.rng.Int63n(1000))
				deltas = append(deltas, core.Delta{Table: "dim", Op: core.DeltaUpdate, Row: row, Key: intKey(k)})
				pend.put("dim", row)
			}
		}
		// Cross-table routing plus a guaranteed missing-key skip.
		if cur, ok := pend["fact"][2]; ok {
			row := cur.Clone()
			row[1] = catalog.NewInt(77)
			deltas = append(deltas, core.Delta{Table: "fact", Op: core.DeltaUpdate, Row: row, Key: intKey(2)})
			pend.put("fact", row)
		}
		deltas = append(deltas, core.Delta{Table: "fact", Op: core.DeltaDelete, Key: intKey(999)})
		_, err := m.ApplyBatch(deltas)
		return err
	}); err != nil {
		return err
	}

	// VN 7: the SQL transaction runs statements through Exec, each
	// evaluated whole and then folded through Tables 2–4: a WHERE update, a
	// WHERE delete, and an insert that re-inserts a key the delete removed
	// (Table 2 row 2) beside a fresh one.
	if err := w.txn(func(m *core.Maintenance, pend model) error {
		for _, stmt := range []string{
			`UPDATE dim SET v = v + 1 WHERE k < 5`,
			`DELETE FROM fact WHERE qty >= 4`,
			`INSERT INTO fact VALUES (4, 40, 2.5), (7, 7, 3.5)`,
		} {
			if _, err := m.Exec(stmt, nil); err != nil {
				return err
			}
		}
		for k, t := range pend["dim"] {
			if k < 5 {
				pend.put("dim", dimRow(k, t[1].Int()+1, t[2].Str()))
			}
		}
		for k, t := range pend["fact"] {
			if t[1].Int() >= 4 {
				pend.delete("fact", k)
			}
		}
		pend.put("fact", factRow(4, 40, 2.5))
		pend.put("fact", factRow(7, 7, 3.5))
		return nil
	}); err != nil {
		return err
	}
	// A second GC pass reclaims that transaction's deletes and journals
	// them as another VN-0 pseudo-transaction, and the last transaction
	// inserts a key it reclaimed afresh (Table 2 row 3): replay collides
	// with the deleted tuple unless the reclamation was journaled.
	if gcStats := w.store.GC(); gcStats.Err != nil {
		return w.stop(gcStats.Err)
	}
	return w.txn(func(m *core.Maintenance, pend model) error {
		if _, err := m.Exec(`INSERT INTO fact VALUES (5, 50, 1.5)`, nil); err != nil {
			return err
		}
		pend.put("fact", factRow(5, 50, 1.5))
		return nil
	})
}

// validate power-cuts fs, recovers, and checks every durability invariant
// against st. synclie tells it whether the script contained a lying fsync
// (which legitimately loses acknowledged commits).
func validate(cfg Config, fs *vfs.FaultFS, st *runState, synclie bool) error {
	fs.PowerCut()
	fs.SetScript(nil) // recovery runs on healthy hardware
	recStore, _, _, err := wal.RecoverFS(fs, walPath,
		db.Options{PageSize: 256},
		core.Options{N: cfg.N})
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	recVN := recStore.CurrentVN()
	snap, ok := st.snapshots[recVN]
	if !ok {
		return fmt.Errorf("recovered currentVN %d is not any pre-crash commit point (acked %d)", recVN, st.acked)
	}
	if !synclie && recVN < st.acked {
		return fmt.Errorf("recovered currentVN %d lost acknowledged commit %d", recVN, st.acked)
	}
	if err := checkOracle(recStore, snap, recVN); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	// The recovered store must accept new work: run a journal-free probe
	// transaction end to end.
	if _, err := recStore.Table("dim"); err != nil {
		if _, err := recStore.CreateTable(dimSchema()); err != nil {
			return fmt.Errorf("post-recovery create: %w", err)
		}
	}
	m, err := recStore.BeginMaintenance()
	if err != nil {
		return fmt.Errorf("post-recovery begin: %w", err)
	}
	if err := m.Insert("dim", dimRow(9999, 1, "probe")); err != nil {
		return fmt.Errorf("post-recovery insert: %w", err)
	}
	if err := m.Commit(); err != nil {
		return fmt.Errorf("post-recovery commit: %w", err)
	}
	if got := recStore.CurrentVN(); got != recVN+1 {
		return fmt.Errorf("post-recovery commit left currentVN at %d, want %d", got, recVN+1)
	}
	return nil
}

// checkOracle checks store's structural invariants (Table 1's slot
// bookkeeping) and that a session at its current VN scans exactly snap, the
// oracle's state at version vn.
func checkOracle(store *core.Store, snap model, vn core.VN) error {
	if err := store.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	sess := store.BeginSession()
	defer sess.Close()
	for table, want := range snap {
		if _, terr := store.Table(table); terr != nil {
			if len(want) == 0 {
				continue // table's Create record was not yet durable
			}
			return fmt.Errorf("table %s with %d oracle rows missing: %v", table, len(want), terr)
		}
		got := map[int64]string{}
		if scanErr := sess.Scan(table, func(b catalog.Tuple) bool {
			got[b[0].Int()] = b.String()
			return true
		}); scanErr != nil {
			return fmt.Errorf("scan of %s: %w", table, scanErr)
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s at VN %d: %d rows, oracle has %d", table, vn, len(got), len(want))
		}
		for k, t := range want {
			if got[k] != t.String() {
				return fmt.Errorf("%s key %d at VN %d: read %q, oracle %q", table, k, vn, got[k], t.String())
			}
		}
	}
	return nil
}

func scriptHasSyncLie(s *vfs.Script) bool {
	for _, f := range s.Faults {
		if f.Kind == vfs.FaultSyncLie {
			return true
		}
	}
	// CutKeep only adds unsynced bytes on top of the durable image, so it
	// can never lose an acknowledged commit; only a lying fsync can.
	return false
}

// RunOnce executes a single workload run under script and validates
// recovery — the one-shot form the pinned regression scenarios use. The
// returned crash point is nil if the script had none.
func RunOnce(cfg Config, script *vfs.Script) (*vfs.CrashPoint, error) {
	cfg = cfg.normalize()
	fs := vfs.NewFaultFS(script)
	st := &runState{}
	crash, err := vfs.Recovering(func() error { return run(cfg, fs, st) })
	if err != nil && !strings.Contains(err.Error(), errStopped.Error()) {
		return crash, fmt.Errorf("workload: %w", err)
	}
	return crash, validate(cfg, fs, st, scriptHasSyncLie(script))
}

// Sweep runs the workload fault-free to count its persisting operations,
// validates the clean run's recovery, then re-runs it once per crash point
// — CrashAt = 1..total — validating recovery after each. On a violation
// the report carries the exact reproducing script.
func Sweep(cfg Config) (Report, error) {
	cfg = cfg.normalize()
	var rep Report

	// Pass 0: fault-free (well, crash-free) count + end-state check.
	fs := vfs.NewFaultFS(cfg.Script)
	st := &runState{}
	crash, err := vfs.Recovering(func() error { return run(cfg, fs, st) })
	if crash != nil {
		return rep, fmt.Errorf("crashtest: base script crashed at op %d without CrashAt", crash.Op)
	}
	if err != nil {
		if !strings.Contains(err.Error(), errStopped.Error()) {
			return rep, fmt.Errorf("crashtest: workload: %w", err)
		}
		rep.FaultStops++
	}
	rep.PersistOps = fs.PersistOps()
	rep.Commits = st.commits
	synclie := scriptHasSyncLie(cfg.Script)
	if err := validate(cfg, fs, st, synclie); err != nil {
		rep.FailScript = cfg.Script.String()
		return rep, fmt.Errorf("crashtest: crash-free run: %w", err)
	}

	// The sweep proper: one run per I/O boundary.
	for at := 1; at <= rep.PersistOps; at++ {
		script := cfg.Script.WithCrash(at)
		fs := vfs.NewFaultFS(script)
		st := &runState{}
		crash, err := vfs.Recovering(func() error { return run(cfg, fs, st) })
		if err != nil && !strings.Contains(err.Error(), errStopped.Error()) {
			rep.FailScript = script.String()
			return rep, fmt.Errorf("crashtest: crash point %d: workload: %w", at, err)
		}
		if err != nil {
			rep.FaultStops++
		}
		if crash == nil && err == nil {
			// The run finished before reaching op `at` (fault handling
			// shortened it); nothing more to sweep.
			break
		}
		rep.Points++
		if err := validate(cfg, fs, st, synclie); err != nil {
			rep.FailScript = script.String()
			return rep, fmt.Errorf("crashtest: crash point %d (%s): %w", at, describe(crash), err)
		}
	}
	return rep, nil
}

// ExhaustedSyncScript fails the second WAL fsync of cfg's fault-free
// workload on every retry attempt: vfs.DefaultRetryAttempts consecutive
// `fault N err` lines, so the WAL's bounded retry gives up and the fault
// surfaces after a commit has become durable. A sweep under it must stop
// the workload on that fault at least once; a random fault script rarely
// does, because the retry absorbs a single failing op.
func ExhaustedSyncScript(cfg Config) (*vfs.Script, error) {
	fs := vfs.NewFaultFS(nil)
	if err := run(cfg.normalize(), fs, &runState{}); err != nil {
		return nil, fmt.Errorf("crashtest: fault-free workload: %w", err)
	}
	syncs := 0
	for _, r := range fs.Trace() {
		if !strings.HasPrefix(r.Site, "sync "+walPath) {
			continue
		}
		if syncs++; syncs == 2 {
			script := vfs.NewScript()
			for i := 0; i < vfs.DefaultRetryAttempts; i++ {
				script.AddFault(r.Index+i, vfs.FaultErr, 0)
			}
			return script, nil
		}
	}
	return nil, fmt.Errorf("crashtest: workload performs fewer than two WAL fsyncs")
}

func describe(c *vfs.CrashPoint) string {
	if c == nil {
		return "no crash"
	}
	return c.Site
}
