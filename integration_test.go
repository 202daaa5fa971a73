package repro

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// TestWarehouseEndToEnd drives the full stack the way a deployment would:
// a week of daily feed batches propagated through 2VNL maintenance
// transactions into three materialized summary views, with concurrent
// analyst sessions running roll-up + drill-down pairs the whole time.
// Afterwards every view is audited against a recomputation from the fact
// history, and garbage collection reclaims dead summary tuples.
func TestWarehouseEndToEnd(t *testing.T) {
	for _, n := range []int{2, 3} {
		n := n
		t.Run(map[int]string{2: "2VNL", 3: "3VNL"}[n], func(t *testing.T) {
			engine := db.Open(db.Options{})
			store, err := core.Open(engine, core.Options{N: n})
			if err != nil {
				t.Fatal(err)
			}
			wh := warehouse.New(store)
			for _, def := range []warehouse.ViewDef{
				{Name: "DailySales", GroupBy: []string{"city", "state", "product_line", "date"},
					Aggregates: []warehouse.Aggregate{{Func: "sum", Source: "amount", As: "total_sales"}}},
				{Name: "StateSales", GroupBy: []string{"state"},
					Aggregates: []warehouse.Aggregate{
						{Func: "sum", Source: "amount", As: "total_sales"},
						{Func: "count", As: "num_sales"}}},
				{Name: "GolfByCity", GroupBy: []string{"city"},
					Aggregates: []warehouse.Aggregate{{Func: "sum", Source: "quantity", As: "qty"}},
					Filter:     func(f warehouse.Fact) bool { return f.ProductLine == "golf equip" }},
			} {
				if _, err := wh.Materialize(def); err != nil {
					t.Fatal(err)
				}
			}

			gen := workload.New(int64(100 + n))
			var readers sync.WaitGroup
			stop := make(chan struct{})
			errCh := make(chan error, 32)
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						sess := store.BeginSession()
						total, err := sess.Query(
							`SELECT SUM(total_sales) FROM DailySales WHERE state = 'CA'`, nil)
						if errors.Is(err, core.ErrSessionExpired) {
							sess.Close()
							continue
						}
						if err != nil {
							errCh <- err
							sess.Close()
							return
						}
						drill, err := sess.Query(
							`SELECT city, SUM(total_sales) FROM DailySales WHERE state = 'CA' GROUP BY city`, nil)
						if errors.Is(err, core.ErrSessionExpired) {
							sess.Close()
							continue
						}
						if err != nil {
							errCh <- err
							sess.Close()
							return
						}
						var sum int64
						for _, row := range drill.Tuples {
							sum += row[1].Int()
						}
						want := int64(0)
						if !total.Tuples[0][0].IsNull() {
							want = total.Tuples[0][0].Int()
						}
						if sum != want {
							errCh <- errors.New("drill-down does not add up to roll-up within one session")
							sess.Close()
							return
						}
						sess.Close()
					}
				}()
			}

			const days = 7
			for day := 0; day < days; day++ {
				if err := wh.RefreshBatch(gen.Batch(400, 10)); err != nil {
					t.Fatal(err)
				}
				gen.NextDay()
			}
			close(stop)
			readers.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			if store.CurrentVN() != core.VN(1+days) {
				t.Errorf("currentVN = %d, want %d", store.CurrentVN(), 1+days)
			}
			if diff := wh.CheckViews(gen.Sold()); diff != "" {
				t.Fatalf("view audit: %s", diff)
			}
			// GC: retractions produced dead summary tuples somewhere along
			// the way; after GC none remain and the audit still passes.
			st := store.GC()
			if dead := store.DeadTuples(); dead["DailySales"] != 0 {
				t.Errorf("dead tuples after GC: %v (gc: %+v)", dead, st)
			}
			if diff := wh.CheckViews(gen.Sold()); diff != "" {
				t.Fatalf("view audit after GC: %s", diff)
			}
		})
	}
}

// TestSchemesSideBySide runs an identical batch history through 2VNL and
// every §6 baseline and asserts they converge to the same final state —
// the cross-scheme differential test at integration scale.
func TestSchemesSideBySide(t *testing.T) {
	build := []func() (mvcc.Scheme, error){
		func() (mvcc.Scheme, error) { return mvcc.NewS2PL(mvcc.Config{}) },
		func() (mvcc.Scheme, error) { return mvcc.NewTwoV2PL(mvcc.Config{}) },
		func() (mvcc.Scheme, error) { return mvcc.NewMV2PL(mvcc.Config{}) },
		func() (mvcc.Scheme, error) { return mvcc.NewMV2PL(mvcc.Config{CacheSlots: 1}) },
		func() (mvcc.Scheme, error) { return mvcc.NewOffline(mvcc.Config{}) },
		func() (mvcc.Scheme, error) { return mvcc.NewVNL(mvcc.Config{}, 2) },
		func() (mvcc.Scheme, error) { return mvcc.NewVNL(mvcc.Config{}, 4) },
	}
	const rows, batches = 500, 8
	var want []int64 // final expected value per key, -1 = deleted
	for _, mk := range build {
		s, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		initial := make([]mvcc.KV, rows)
		for i := range initial {
			initial[i] = mvcc.KV{K: int64(i), V: 10}
		}
		if err := s.Load(initial); err != nil {
			t.Fatal(err)
		}
		// liveKeys is an ordered list so the random history is identical
		// for every scheme (map iteration order would desynchronize them).
		liveKeys := make([]int64, rows)
		for i := range liveKeys {
			liveKeys[i] = int64(i)
		}
		next := int64(rows)
		rng := rand.New(rand.NewSource(99))
		for b := 0; b < batches; b++ {
			w, err := s.BeginWriter()
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			for op := 0; op < 60; op++ {
				switch rng.Intn(4) {
				case 0:
					k, v := next, rng.Int63n(100)
					next++
					if err := w.Insert(k, v); err != nil {
						t.Fatalf("%s insert: %v", s.Name(), err)
					}
					liveKeys = append(liveKeys, k)
				case 3:
					if len(liveKeys) == 0 {
						continue
					}
					i := rng.Intn(len(liveKeys))
					k := liveKeys[i]
					if err := w.Delete(k); err != nil {
						t.Fatalf("%s delete %d: %v", s.Name(), k, err)
					}
					liveKeys = append(liveKeys[:i], liveKeys[i+1:]...)
				default:
					if len(liveKeys) == 0 {
						continue
					}
					k := liveKeys[rng.Intn(len(liveKeys))]
					v := rng.Int63n(100)
					if err := w.Update(k, v); err != nil {
						t.Fatalf("%s update %d: %v", s.Name(), k, err)
					}
				}
			}
			if err := w.Commit(); err != nil {
				t.Fatalf("%s commit: %v", s.Name(), err)
			}
		}
		// Expectations come from the first scheme's final state; every
		// later scheme must match it key for key.
		r, err := s.BeginReader()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, next)
		for k := int64(0); k < next; k++ {
			v, ok, err := r.Get(k)
			if err != nil {
				t.Fatalf("%s get: %v", s.Name(), err)
			}
			if !ok {
				got[k] = -1
			} else {
				got[k] = v
			}
		}
		r.Close()
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys vs %d", s.Name(), len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s diverged at key %d: %d vs %d", s.Name(), k, got[k], want[k])
			}
		}
	}
}

// TestServingStoresHaveNoPool: every way a server opens a store — a plain
// store, a router's shard and a replica — passes zero options, and so runs
// without a buffer pool: no scan or write records a page access, and no
// storage_pool_* series is registered.
func TestServingStoresHaveNoPool(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := core.Open(db.Open(db.Options{}), core.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.Open(shard.Options{Shards: 2, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rep, err := repl.Open(repl.Options{FS: vfs.NewFaultFS(nil), Path: "replica/wal.log", Store: core.Options{Metrics: obs.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for name, st := range map[string]*core.Store{"store": store, "shard 0": r.Shard(0), "shard 1": r.Shard(1), "replica": rep.Store()} {
		if p := st.DB().Pool(); p != nil {
			t.Errorf("%s has a buffer pool of %d pages", name, p.Capacity())
		}
	}
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, "storage_pool") {
			t.Errorf("a pool-less store registered %s", name)
		}
	}
}
