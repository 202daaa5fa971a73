package crashtest

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/repl"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// This file extends the crash harness to WAL-shipping replicas: the same
// scripted Tables 2–4 workload runs on a primary, its per-commit logical
// states become the oracle, and a follower replaying the shipped bytes is
// checked against that oracle — live at every commit point (RunPrimary +
// the differential suite in internal/repl), and across a crash injected
// before every persisting replica I/O (ReplicaSweep).

// WalPath is the workload's WAL location inside its FaultFS — the file a
// replication feed serves.
const WalPath = walPath

// Oracle is the exported logical-state record of a primary run:
// Snapshots[vn] is the table → key → tuple-string state the database holds
// iff vn is the highest committed version; Acked is the highest VN whose
// commit was acknowledged.
type Oracle struct {
	Snapshots map[core.VN]map[string]map[int64]string
	Acked     core.VN
	Commits   int
}

// At returns the oracle state at vn, or nil if vn was never a commit point.
func (o *Oracle) At(vn core.VN) map[string]map[int64]string { return o.Snapshots[vn] }

// PrimaryHooks observes the primary workload as it runs.
type PrimaryHooks struct {
	// OnJournal receives the live *wal.Log right after it is installed,
	// so the caller can serve a replication feed from it.
	OnJournal func(*wal.Log)
	// OnCommit fires after each acknowledged commit with the new VN; an
	// error aborts the workload (it is a harness failure, not a fault).
	OnCommit func(vn core.VN) error
}

// RunPrimary drives the scripted workload on fs as a replication primary:
// checkpoint elided (byte-offset LSN streams survive only appends), every
// commit reported through hooks, and the per-commit oracle returned. An
// early stop on a scripted fault is tolerated exactly as Sweep tolerates
// it; the oracle then covers the prefix that ran.
func RunPrimary(cfg Config, fs *vfs.FaultFS, hooks PrimaryHooks) (*Oracle, error) {
	cfg = cfg.normalize()
	cfg.SkipCheckpoint = true
	cfg.onJournal = hooks.OnJournal
	cfg.onCommit = hooks.OnCommit
	st := &runState{}
	if err := run(cfg, fs, st); err != nil && !strings.Contains(err.Error(), errStopped.Error()) {
		return nil, err
	}
	return exportOracle(st), nil
}

func exportOracle(st *runState) *Oracle {
	o := &Oracle{
		Snapshots: make(map[core.VN]map[string]map[int64]string, len(st.snapshots)),
		Acked:     st.acked,
		Commits:   st.commits,
	}
	for vn, mo := range st.snapshots {
		tables := make(map[string]map[int64]string, len(mo))
		for tbl, rows := range mo {
			m := make(map[int64]string, len(rows))
			for k, t := range rows {
				m[k] = t.String()
			}
			tables[tbl] = m
		}
		o.Snapshots[vn] = tables
	}
	return o
}

// CheckState asserts that a replica store's scannable state at its current
// VN matches the oracle exactly — same tables, same keys, same tuples.
func (o *Oracle) CheckState(store *core.Store) error {
	vn := store.CurrentVN()
	want, ok := o.Snapshots[vn]
	if !ok {
		return fmt.Errorf("replica VN %d is not any primary commit point (acked %d)", vn, o.Acked)
	}
	sess := store.BeginSession()
	defer sess.Close()
	for table, rows := range want {
		if _, terr := store.Table(table); terr != nil {
			if len(rows) == 0 {
				continue // the table's Create record is past the replica's position
			}
			return fmt.Errorf("table %s with %d oracle rows missing on replica: %v", table, len(rows), terr)
		}
		got := map[int64]string{}
		if scanErr := sess.Scan(table, func(b catalog.Tuple) bool {
			got[b[0].Int()] = b.String()
			return true
		}); scanErr != nil {
			return fmt.Errorf("replica scan of %s: %w", table, scanErr)
		}
		if len(got) != len(rows) {
			return fmt.Errorf("%s at VN %d: replica has %d rows, oracle %d", table, vn, len(got), len(rows))
		}
		for k, t := range rows {
			if got[k] != t {
				return fmt.Errorf("%s key %d at VN %d: replica %q, oracle %q", table, k, vn, got[k], t)
			}
		}
	}
	return nil
}

// ReplicaReport summarizes a replica crash sweep.
type ReplicaReport struct {
	// PersistOps is the clean replica pass's persisting-I/O count — the
	// number of crash points swept.
	PersistOps int
	// Points is how many crash points were exercised.
	Points int
	// Commits is the primary's acknowledged commit count.
	Commits int
	// FinalVN is the primary history's last committed version.
	FinalVN core.VN
}

const replicaWalPath = "replica/wal.log"

// replicaOpen opens (or re-opens) the sweep's replica over rfs.
func replicaOpen(cfg Config, rfs *vfs.FaultFS) (*repl.Replica, error) {
	return repl.Open(repl.Options{
		FS:    rfs,
		Path:  replicaWalPath,
		DB:    db.Options{PageSize: 256},
		Store: core.Options{N: cfg.N},
		// Tiny segments: each catch-up poll ships a record or two, so the
		// sweep injects crashes between every append/fsync pair along the
		// whole history, not just once at a single bulk transfer.
		MaxBytes: 96,
	})
}

// ReplicaSweep proves a follower crash-safe at every persisting I/O
// boundary of its replay path. It runs the primary workload to completion
// on clean hardware, serves the finished WAL through a static feed, and
// then: (pass 0) catches a replica up fault-free, counting its persisting
// ops and checking full differential parity; (sweep) for every k up to
// that count, crashes a fresh replica at its k-th persisting op, power-cuts
// its filesystem, re-opens it — which must land on a prefix commit point
// with no record skipped or doubly applied — then finishes catch-up and
// re-checks parity and the structural invariants.
func ReplicaSweep(cfg Config) (ReplicaReport, error) {
	cfg = cfg.normalize()
	var rep ReplicaReport

	// The primary's full history, fault-free.
	pfs := vfs.NewFaultFS(nil)
	oracle, err := RunPrimary(cfg, pfs, PrimaryHooks{})
	if err != nil {
		return rep, fmt.Errorf("crashtest: primary run: %w", err)
	}
	rep.Commits = oracle.Commits
	rep.FinalVN = oracle.Acked
	durable, err := wal.IterateLSNFS(pfs, walPath, func(int64, *wal.Record) error { return nil })
	if err != nil {
		return rep, fmt.Errorf("crashtest: sizing primary WAL: %w", err)
	}
	feed := repl.NewStaticFeed(pfs, walPath, durable, 1)
	src := &repl.DirectSource{Feed: feed, PrimaryVN: func() uint64 { return uint64(oracle.Acked) }}

	catchup := func(rfs *vfs.FaultFS) error {
		r, err := replicaOpen(cfg, rfs)
		if err != nil {
			return err
		}
		defer func() { _ = r.Close() }()
		if err := r.Catchup(src); err != nil {
			return err
		}
		return oracle.CheckState(r.Store())
	}

	// Pass 0: fault-free catch-up — counts the crash points and proves
	// end-state parity before any fault is injected.
	rfs := vfs.NewFaultFS(nil)
	if err := catchup(rfs); err != nil {
		return rep, fmt.Errorf("crashtest: clean replica pass: %w", err)
	}
	rep.PersistOps = rfs.PersistOps()

	for at := 1; at <= rep.PersistOps; at++ {
		rfs := vfs.NewFaultFS(vfs.NewScript().WithCrash(at))
		crash, err := vfs.Recovering(func() error { return catchup(rfs) })
		if err != nil {
			return rep, fmt.Errorf("crashtest: replica crash point %d: doomed pass: %w", at, err)
		}
		if crash == nil {
			// The replay finished without reaching op `at`; the clean pass
			// counted it, so something desynchronized.
			return rep, fmt.Errorf("crashtest: replica crash point %d never fired (clean pass counted %d ops)", at, rep.PersistOps)
		}
		rep.Points++
		rfs.PowerCut()
		rfs.SetScript(nil) // recovery and resumption run on healthy hardware

		// Re-open: must land on a commit-point prefix of the primary's
		// history (CheckState also proves nothing was skipped or doubly
		// applied up to that VN), then resume to full parity.
		r, err := replicaOpen(cfg, rfs)
		if err != nil {
			return rep, fmt.Errorf("crashtest: replica crash point %d: re-open: %w", at, err)
		}
		if got, limit := r.NextLSN(), durable; got > limit {
			_ = r.Close()
			return rep, fmt.Errorf("crashtest: replica crash point %d: resume LSN %d beyond primary durable end %d", at, got, limit)
		}
		if err := oracle.CheckState(r.Store()); err != nil {
			_ = r.Close()
			return rep, fmt.Errorf("crashtest: replica crash point %d: post-crash state: %w", at, err)
		}
		if err := r.Catchup(src); err != nil {
			_ = r.Close()
			return rep, fmt.Errorf("crashtest: replica crash point %d: resumed catch-up: %w", at, err)
		}
		err = func() error {
			if err := oracle.CheckState(r.Store()); err != nil {
				return fmt.Errorf("final state: %w", err)
			}
			if got := core.VN(r.ReplayedVN()); got != oracle.Acked {
				return fmt.Errorf("caught-up replica at VN %d, primary history ends at %d", got, oracle.Acked)
			}
			return r.Store().CheckInvariants()
		}()
		_ = r.Close()
		if err != nil {
			return rep, fmt.Errorf("crashtest: replica crash point %d: %w", at, err)
		}
	}
	return rep, nil
}
