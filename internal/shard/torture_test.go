package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
)

// The torture tests attack the one promise the epoch flip makes: a reader
// session never observes a torn cross-shard snapshot — shard A at epoch k
// while shard B serves k−1 — and the per-shard GC floors never reclaim a
// version some cross-shard session is still pinned to. Every publish here
// stamps the same value into every row, so any mix of epochs inside one
// scan shows up as two different stamps, and any premature GC shows up as
// ErrSessionExpired on a session the router just handed out, or as a
// short row count.

const tortureKeys = 48

func tortureSchema() *catalog.Schema {
	return catalog.MustSchema("dim", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
}

func tortureRow(k, v int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)}
}

// stampBatch updates every key to the same stamp.
func stampBatch(v int64) []core.Delta {
	out := make([]core.Delta, tortureKeys)
	for k := int64(0); k < tortureKeys; k++ {
		out[k] = core.Delta{Table: "dim", Op: core.DeltaUpdate, Row: tortureRow(k, v), Key: catalog.Tuple{catalog.NewInt(k)}}
	}
	return out
}

// seedTorture creates the table and publishes stamp 1 on every key.
func seedTorture(t *testing.T, r *Router) {
	t.Helper()
	if err := r.CreateTable(tortureSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	load := make([]core.Delta, tortureKeys)
	for k := int64(0); k < tortureKeys; k++ {
		load[k] = core.Delta{Table: "dim", Op: core.DeltaInsert, Row: tortureRow(k, 1)}
	}
	if _, _, err := r.ApplyBatch(load); err != nil {
		t.Fatalf("initial publish: %v", err)
	}
}

// readOnce begins a session, scans, and checks coherence. It reports
// (expired, err): expired scans are legal under a fast writer (the pin
// outlived its back-version window) and are retried by the caller;
// anything else incoherent is a test failure returned as err.
func readOnce(r *Router) (bool, error) {
	s, err := r.BeginSession()
	if err != nil {
		return false, fmt.Errorf("BeginSession: %w", err)
	}
	defer s.Close()
	rows := 0
	stamp := int64(-1)
	var torn error
	err = s.Scan("dim", func(tup catalog.Tuple) bool {
		rows++
		v := tup[1].Int()
		if stamp == -1 {
			stamp = v
		} else if v != stamp {
			torn = fmt.Errorf("torn snapshot at VN %d: stamps %d and %d in one scan", s.VN(), stamp, v)
			return false
		}
		return true
	})
	if err != nil {
		if errors.Is(err, core.ErrSessionExpired) {
			return true, nil
		}
		return false, fmt.Errorf("scan at VN %d: %w", s.VN(), err)
	}
	if torn != nil {
		return false, torn
	}
	if rows != tortureKeys {
		return false, fmt.Errorf("scan at VN %d saw %d rows, want %d", s.VN(), rows, tortureKeys)
	}
	return false, nil
}

// TestEpochFlipTorture races continuous readers and a GC hammer against a
// writer that publishes as fast as it can. Run with -race; a single torn
// snapshot, short scan, or GC-reclaimed pinned version fails the test.
func TestEpochFlipTorture(t *testing.T) {
	configs := []struct{ shards, n int }{
		{shards: 4, n: 2},
		{shards: 3, n: 4},
		{shards: 7, n: 3},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("shards=%d/n=%d", cfg.shards, cfg.n), func(t *testing.T) {
			t.Parallel()
			r, err := Open(Options{Shards: cfg.shards, N: cfg.n})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()
			seedTorture(t, r)

			var stop atomic.Bool
			var wg sync.WaitGroup
			fail := make(chan error, 16)

			// Writer: publish stamps 2, 3, 4, ... flat out.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for stamp := int64(2); !stop.Load(); stamp++ {
					if _, _, err := r.ApplyBatch(stampBatch(stamp)); err != nil {
						select {
						case fail <- fmt.Errorf("publish %d: %w", stamp, err):
						default:
						}
						return
					}
				}
			}()

			// GC hammer: every shard, continuously, while readers are pinned.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					for _, gcs := range r.GC() {
						if gcs.Err != nil {
							select {
							case fail <- fmt.Errorf("GC: %w", gcs.Err):
							default:
							}
							return
						}
					}
				}
			}()

			// Readers.
			var scans, expired atomic.Int64
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						exp, err := readOnce(r)
						if err != nil {
							select {
							case fail <- err:
							default:
							}
							return
						}
						if exp {
							expired.Add(1)
						} else {
							scans.Add(1)
						}
					}
				}()
			}

			time.Sleep(400 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			close(fail)
			for err := range fail {
				t.Error(err)
			}
			t.Logf("%d coherent scans, %d expired-and-retried, final epoch %d",
				scans.Load(), expired.Load(), r.EpochVN())
			if scans.Load() == 0 {
				t.Fatal("no reader ever completed a coherent scan; torture exercised nothing")
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("post-torture invariants: %v", err)
			}
		})
	}
}

// TestEpochFreezeMidCommit is the deterministic schedule: one shard's
// commit is frozen mid-publish, so the other shards hold version k+1 while
// the epoch pointer still reads k. Readers beginning during the freeze must
// pin k and see only stamp k's rows, and a GC pass over every shard —
// including those already committed past the epoch — must reclaim nothing
// a k-pinned session needs (the GC-floor clamp to the published epoch).
func TestEpochFreezeMidCommit(t *testing.T) {
	r, err := Open(Options{Shards: 4, N: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	seedTorture(t, r) // epoch 2, stamp 1 everywhere

	entered := make(chan struct{})
	release := make(chan struct{})
	r.SetHooks(Hooks{BeforeShardCommit: func(shard int, vn core.VN) {
		if shard == 2 {
			close(entered)
			<-release
		}
	}})

	done := make(chan error, 1)
	go func() {
		_, _, err := r.ApplyBatch(stampBatch(2))
		done <- err
	}()
	<-entered

	// Mid-publish: shards 0, 1, 3 may have committed VN 3; shard 2 has not;
	// the epoch pointer must still read 2 and serve a coherent stamp-1 view.
	if got := r.EpochVN(); got != 2 {
		t.Fatalf("epoch moved to %d while shard 2 is frozen mid-commit", got)
	}
	sess, err := r.BeginSession()
	if err != nil {
		t.Fatalf("BeginSession under freeze: %v", err)
	}
	if sess.VN() != 2 {
		t.Fatalf("session pinned VN %d under freeze, want 2", sess.VN())
	}
	checkStamp := func(label string) {
		t.Helper()
		rows := 0
		if err := sess.Scan("dim", func(tup catalog.Tuple) bool {
			rows++
			if v := tup[1].Int(); v != 1 {
				t.Fatalf("%s: stamp %d leaked into the epoch-2 view", label, v)
			}
			return true
		}); err != nil {
			t.Fatalf("%s: scan: %v", label, err)
		}
		if rows != tortureKeys {
			t.Fatalf("%s: %d rows, want %d", label, rows, tortureKeys)
		}
	}
	checkStamp("under freeze")

	// GC every shard during the freeze. The committed shards' stores sit at
	// VN 3; without the epoch clamp their floors would pass 2 and reclaim
	// the very versions sess is reading.
	for _, gcs := range r.GC() {
		if gcs.Err != nil {
			t.Fatalf("GC under freeze: %v", gcs.Err)
		}
	}
	checkStamp("after GC under freeze")
	if err := sess.Check(); err != nil {
		t.Fatalf("pinned session expired under freeze: %v", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("publish after release: %v", err)
	}
	if got := r.EpochVN(); got != 3 {
		t.Fatalf("epoch %d after release, want 3", got)
	}
	// The old pin still reads stamp 1; a fresh session reads stamp 2.
	checkStamp("old pin after flip")
	sess.Close()
	fresh, err := r.BeginSession()
	if err != nil {
		t.Fatalf("BeginSession after flip: %v", err)
	}
	defer fresh.Close()
	rows := 0
	if err := fresh.Scan("dim", func(tup catalog.Tuple) bool {
		rows++
		if v := tup[1].Int(); v != 2 {
			t.Fatalf("fresh session at epoch 3 saw stamp %d", v)
		}
		return true
	}); err != nil {
		t.Fatalf("fresh scan: %v", err)
	}
	if rows != tortureKeys {
		t.Fatalf("fresh scan saw %d rows, want %d", rows, tortureKeys)
	}
}

// TestEpochFreezeBeforeFlip freezes the publish after every shard has
// committed but before the flip record and pointer store: the universe
// where all shards physically hold k+1 yet the published epoch is still k.
// Readers must keep assembling coherent k-views, and GC — whose floors
// would otherwise chase the shards' k+1 — must hold at the epoch.
func TestEpochFreezeBeforeFlip(t *testing.T) {
	r, err := Open(Options{Shards: 4, N: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	seedTorture(t, r)

	entered := make(chan struct{})
	release := make(chan struct{})
	r.SetHooks(Hooks{BeforeFlip: func(vn core.VN) {
		close(entered)
		<-release
	}})

	done := make(chan error, 1)
	go func() {
		_, _, err := r.ApplyBatch(stampBatch(2))
		done <- err
	}()
	<-entered

	// All four shards now hold VN 3; the epoch is still 2.
	if got := r.EpochVN(); got != 2 {
		t.Fatalf("epoch moved to %d before the flip record", got)
	}
	for i := 0; i < r.Shards(); i++ {
		if vn := r.Shard(i).CurrentVN(); vn != 3 {
			t.Fatalf("shard %d at VN %d with the flip frozen, want 3", i, vn)
		}
	}
	sess, err := r.BeginSession()
	if err != nil {
		t.Fatalf("BeginSession before flip: %v", err)
	}
	defer sess.Close()
	if sess.VN() != 2 {
		t.Fatalf("session pinned VN %d, want 2", sess.VN())
	}
	for _, gcs := range r.GC() {
		if gcs.Err != nil {
			t.Fatalf("GC before flip: %v", gcs.Err)
		}
	}
	rows := 0
	if err := sess.Scan("dim", func(tup catalog.Tuple) bool {
		rows++
		if v := tup[1].Int(); v != 1 {
			t.Fatalf("stamp %d visible in the epoch-2 view before the flip", v)
		}
		return true
	}); err != nil {
		t.Fatalf("scan before flip: %v", err)
	}
	if rows != tortureKeys {
		t.Fatalf("scan saw %d rows, want %d", rows, tortureKeys)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("publish after release: %v", err)
	}
	if got := r.EpochVN(); got != 3 {
		t.Fatalf("epoch %d after release, want 3", got)
	}
}

// TestAbortedPublishExpiresPinnedScan: a session pinned one epoch back
// reads every shard's pre-update copies. When a publish aborts while the
// session is scanning, each shard's rollback reverts its tuples in place and
// overwrites those copies with the current values, so a shard read after
// its revert must report ErrSessionExpired rather than the newer epoch's
// values. The abort runs from the scan callback, on the first row the last
// shard delivers; that shard has already passed its pre-scan check, and
// small pages leave most of its rows to be read after the revert.
func TestAbortedPublishExpiresPinnedScan(t *testing.T) {
	const shards, keys = 2, 64
	r, err := Open(Options{Shards: shards, N: 2, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	schema := tortureSchema()
	if err := r.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	stamp := func(v int64) []core.Delta {
		var ds []core.Delta
		for k := int64(0); k < keys; k++ {
			row := catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)}
			if v == 100 {
				ds = append(ds, core.Delta{Table: "dim", Op: core.DeltaInsert, Row: row})
			} else {
				ds = append(ds, core.Delta{Table: "dim", Op: core.DeltaUpdate, Row: row, Key: catalog.Tuple{catalog.NewInt(k)}})
			}
		}
		return ds
	}
	if _, _, err := r.ApplyBatch(stamp(100)); err != nil {
		t.Fatal(err)
	}
	sess, err := r.BeginSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, _, err := r.ApplyBatch(stamp(200)); err != nil {
		t.Fatal(err)
	}
	// The aborting publish updates every row, then fails on a duplicate
	// insert, so every shard rolls back.
	abort := append(stamp(300), core.Delta{Table: "dim", Op: core.DeltaInsert,
		Row: catalog.Tuple{catalog.NewInt(0), catalog.NewInt(0)}})
	owner := func(k int64) int {
		i, err := core.PartitionDelta(schema, core.Delta{Table: "dim", Op: core.DeltaDelete, Key: catalog.Tuple{catalog.NewInt(k)}}, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	aborted, wrong := false, 0
	err = sess.Scan("dim", func(row catalog.Tuple) bool {
		if !aborted && owner(row[0].Int()) == shards-1 {
			aborted = true
			if _, _, err := r.ApplyBatch(abort); err == nil {
				t.Fatal("the aborting publish committed")
			}
		}
		if row[1].Int() != 100 {
			wrong++
		}
		return true
	})
	if !aborted {
		t.Fatal("the last shard delivered no row; the abort never ran")
	}
	if !errors.Is(err, core.ErrSessionExpired) {
		t.Fatalf("scan at epoch %d across an aborted publish = %v with %d rows not at 100; want ErrSessionExpired", sess.VN(), err, wrong)
	}
}
