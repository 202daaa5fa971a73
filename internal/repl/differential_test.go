package repl_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/crashtest"
	"repro/internal/db"
	"repro/internal/repl"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// state is one scanned logical image: table → key → tuple string.
type state map[string]map[int64]string

func scanAll(t *testing.T, store *core.Store) state {
	t.Helper()
	sess := store.BeginSession()
	defer sess.Close()
	out := state{}
	for _, vt := range store.Tables() {
		name := vt.Base().Name
		rows := map[int64]string{}
		if err := sess.Scan(name, func(b catalog.Tuple) bool {
			rows[b[0].Int()] = b.String()
			return true
		}); err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
		out[name] = rows
	}
	return out
}

// diffStates returns a description of the first mismatch between a scanned
// replica state and an oracle snapshot, or "" when byte-identical.
func diffStates(got state, want map[string]map[int64]string) string {
	for table, rows := range want {
		g, ok := got[table]
		if !ok {
			if len(rows) == 0 {
				continue // table not yet created on the replica: same logical state
			}
			return fmt.Sprintf("table %s missing (oracle has %d rows)", table, len(rows))
		}
		if len(g) != len(rows) {
			return fmt.Sprintf("table %s: replica %d rows, oracle %d", table, len(g), len(rows))
		}
		for k, w := range rows {
			if g[k] != w {
				return fmt.Sprintf("table %s key %d: replica %q, oracle %q", table, k, g[k], w)
			}
		}
	}
	for table, rows := range got {
		if _, ok := want[table]; !ok && len(rows) > 0 {
			return fmt.Sprintf("table %s exists on the replica with %d rows but not in the oracle", table, len(rows))
		}
	}
	return ""
}

// runDifferential drives one seeded primary workload with a replica
// tailing it live: at every acknowledged commit the replica catches up,
// must land exactly on the committed VN, and its session scan is recorded;
// after the run every recorded scan is compared byte-for-byte against the
// oracle's snapshot at that VN.
//
// With tail set, Catchup is not called: the replica's own tail loop
// (Replica.Start) long-polls the feed on another goroutine while the
// primary writes, and the commit hook only waits for the replay to reach
// the committed VN.
func runDifferential(t *testing.T, cfg crashtest.Config, tail bool) {
	t.Helper()
	pfs := vfs.NewFaultFS(nil)
	rfs := vfs.NewFaultFS(nil)

	rep, err := repl.Open(repl.Options{
		FS:       rfs,
		Path:     "replica/wal.log",
		DB:       db.Options{PoolPages: 4, PageSize: 256},
		Store:    core.Options{N: cfg.N},
		PollWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	var src *repl.DirectSource
	scans := map[core.VN]state{}
	oracle, err := crashtest.RunPrimary(cfg, pfs, crashtest.PrimaryHooks{
		OnJournal: func(log *wal.Log) {
			src = &repl.DirectSource{Feed: repl.NewFeed(pfs, crashtest.WalPath, log, 7)}
			if tail {
				rep.Start(src)
			}
		},
		OnCommit: func(vn core.VN) error {
			if tail {
				if err := awaitReplayed(rep, vn); err != nil {
					return err
				}
			} else if err := rep.Catchup(src); err != nil {
				return fmt.Errorf("catch-up at VN %d: %w", vn, err)
			}
			if got := core.VN(rep.ReplayedVN()); got != vn {
				return fmt.Errorf("replica replayed VN %d after primary commit %d", got, vn)
			}
			scans[vn] = scanAll(t, rep.Store())
			return nil
		},
	})
	rep.Stop(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scans) != oracle.Commits {
		t.Fatalf("recorded %d replica scans, primary acknowledged %d commits", len(scans), oracle.Commits)
	}
	for vn, got := range scans {
		want := oracle.At(vn)
		if want == nil {
			t.Fatalf("replica scanned at VN %d, which is not a primary commit point", vn)
		}
		if d := diffStates(got, want); d != "" {
			t.Fatalf("VN %d: %s", vn, d)
		}
	}
	if err := rep.Store().CheckInvariants(); err != nil {
		t.Fatalf("replica invariants: %v", err)
	}
}

// awaitReplayed waits until the replica's tail loop has replayed vn, or
// fails if the loop latched an error or made no progress for ten seconds.
func awaitReplayed(rep *repl.Replica, vn core.VN) error {
	deadline := time.Now().Add(10 * time.Second)
	for core.VN(rep.ReplayedVN()) < vn {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("tail at VN %d: %w", vn, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tail never replayed VN %d (at %d)", vn, rep.ReplayedVN())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// TestReplicaPinClampsPrimaryGC is the regression test for replica-aware
// GC: a lagging replica holding a reader session advertises its pin in
// every poll, the primary's feed tracks the slowest pin, and a GC pass on
// the primary — whose own sessions would otherwise let the floor reach
// currentVN — must not reclaim the deleted pre-image the replica session
// still reads. Once the session closes and the pin ages out of the window,
// the same pass reclaims it.
func TestReplicaPinClampsPrimaryGC(t *testing.T) {
	fs := vfs.NewFaultFS(nil)
	log, err := wal.CreateFS(fs, "wal.log", wal.PolicyRedoOnly)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := core.Open(db.Open(db.Options{}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	primary.SetJournal(log)
	schema := catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
	if _, err := primary.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	apply := func(deltas ...core.Delta) {
		t.Helper()
		m, err := primary.BeginMaintenance()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ApplyBatch(deltas); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ins := func(k, v int64) core.Delta {
		return core.Delta{Table: "kv", Op: core.DeltaInsert,
			Row: catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)}}
	}
	del := func(k int64) core.Delta {
		return core.Delta{Table: "kv", Op: core.DeltaDelete,
			Key: catalog.Tuple{catalog.NewInt(k)}}
	}
	apply(ins(1, 10), ins(2, 20)) // VN 2

	feed := repl.NewFeed(fs, "wal.log", log, 7)
	feed.SetPinWindow(40 * time.Millisecond)
	primary.SetGCFloorClamp(func() (core.VN, bool) {
		vn, ok := feed.SlowestPinned()
		return core.VN(vn), ok
	})
	src := &repl.DirectSource{Feed: feed, PrimaryVN: func() uint64 { return uint64(primary.CurrentVN()) }}

	rep, err := repl.Open(repl.Options{
		FS:    vfs.NewFaultFS(nil),
		Path:  "replica/wal.log",
		DB:    db.Options{PoolPages: 4, PageSize: 256},
		Store: core.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Catchup(src); err != nil {
		t.Fatal(err)
	}
	if got := rep.ReplayedVN(); got != 2 {
		t.Fatalf("replica replayed VN %d, want 2", got)
	}

	// The replica pins VN 2, where key 2 is still alive.
	sess := rep.Store().BeginSession()
	defer sess.Close()

	// The primary deletes key 2 and moves on. Polls (which advertise the
	// replica's pin) ship too few bytes to complete a record, so the
	// replica stays lagging with its session anchored before the delete.
	apply(del(2))     // VN 3
	apply(ins(3, 30)) // VN 4
	poll := func() {
		t.Helper()
		seg, err := src.Poll(rep.Epoch(), uint64(rep.NextLSN()), rep.PinnedVN(), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Ingest(seg); err != nil {
			t.Fatal(err)
		}
	}
	// Let the catch-up polls' intermediate advertisements (VN 1 while the
	// replica was mid-replay) age out of the pin window, then advertise
	// the session's true pin.
	time.Sleep(100 * time.Millisecond)
	poll()
	if pin := rep.PinnedVN(); pin != 2 {
		t.Fatalf("replica advertises pin %d, want 2", pin)
	}
	if vn, ok := feed.SlowestPinned(); !ok || vn != 2 {
		t.Fatalf("feed tracked pin (%d, %v), want (2, true)", vn, ok)
	}

	// No primary session is open, so without the clamp the floor would be
	// currentVN = 4 and the deleted pre-image of key 2 would be reclaimed.
	if stats := primary.GC(); stats.Removed != 0 {
		t.Fatalf("GC reclaimed %d tuples past a replica pin at VN 2", stats.Removed)
	}
	if dead := primary.DeadTuples()["kv"]; dead != 1 {
		t.Fatalf("primary holds %d dead tuples, want the clamped delete of key 2", dead)
	}

	// Replica catches up and releases its session: the pin rises to the
	// replayed VN, and once the old advertisement ages out of the window
	// the same GC pass reclaims the delete.
	sess.Close()
	if err := rep.Catchup(src); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		poll() // heartbeat: re-advertises the now-unpinned VN
		if stats := primary.GC(); stats.Removed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("GC never reclaimed the delete after the replica pin was released")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := rep.Store().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := primary.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaDifferential proves replica ≡ primary at every commit point
// of the scripted Tables 2–4 workload across 210 seeded schedules: 100
// where the replica catches up synchronously after each commit ("seq"),
// 100 where its own tail loop runs beside the primary ("par"), and 10 on
// an nVNL store.
func TestReplicaDifferential(t *testing.T) {
	type variant struct {
		name  string
		seeds int
		n     int
		tail  bool
	}
	variants := []variant{
		{"seq", 100, 0, false},
		{"par", 100, 0, true},
		{"nvnl", 10, 4, false},
	}
	for _, v := range variants {
		for seed := int64(0); seed < int64(v.seeds); seed++ {
			cfg := crashtest.Config{Seed: seed, N: v.n}
			t.Run(fmt.Sprintf("%s/seed=%d", v.name, seed), func(t *testing.T) {
				t.Parallel()
				runDifferential(t, cfg, v.tail)
			})
		}
	}
}
