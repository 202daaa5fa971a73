package mvcc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func allSchemes(t *testing.T) []Scheme {
	t.Helper()
	cfg := Config{}
	s2, err := NewS2PL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewTwoV2PL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := NewMV2PL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mvc, err := NewMV2PL(Config{CacheSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOffline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vnl, err := NewVNL(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	vnl3, err := NewVNL(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []Scheme{s2, v2, mv, mvc, off, vnl, vnl3}
}

func load(t *testing.T, s Scheme, n int) {
	t.Helper()
	rows := make([]KV, n)
	for i := range rows {
		rows[i] = KV{K: int64(i), V: 100}
	}
	if err := s.Load(rows); err != nil {
		t.Fatalf("%s: Load: %v", s.Name(), err)
	}
}

// TestZeroConfigCountsIO guards §6 against losing its pool: a zero Config
// still gives every scheme a buffer pool (a zero db.Options would not), so
// loading and scanning count misses and the scan counts its page accesses.
func TestZeroConfigCountsIO(t *testing.T) {
	for _, s := range allSchemes(t) {
		t.Run(s.Name(), func(t *testing.T) {
			load(t, s, 10)
			before := s.Stats().IO
			r, err := s.BeginReader()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.ScanSum(); err != nil {
				t.Fatal(err)
			}
			r.Close()
			after := s.Stats().IO
			if after.Misses == 0 {
				t.Errorf("%s counted no misses: %v", s.Name(), after)
			}
			if scan := after.Sub(before); scan.Hits+scan.Misses == 0 {
				t.Errorf("%s's scan recorded no page access", s.Name())
			}
		})
	}
}

// TestSchemesBasicReadWrite drives a serial insert/update/delete batch on
// every scheme and checks readers before, during (where allowed), and after
// see the correct committed states.
func TestSchemesBasicReadWrite(t *testing.T) {
	for _, s := range allSchemes(t) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			load(t, s, 10) // keys 0..9, each 100
			r0, err := s.BeginReader()
			if err != nil {
				t.Fatal(err)
			}
			if sum, count, err := r0.ScanSum(); err != nil || sum != 1000 || count != 10 {
				t.Fatalf("initial scan: %d/%d %v", sum, count, err)
			}
			if v, ok, err := r0.Get(3); err != nil || !ok || v != 100 {
				t.Fatalf("initial get: %d %v %v", v, ok, err)
			}
			if _, ok, _ := r0.Get(99); ok {
				t.Fatal("get of missing key succeeded")
			}
			if err := r0.Close(); err != nil {
				t.Fatal(err)
			}

			w, err := s.BeginWriter()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.BeginWriter(); err == nil {
				t.Fatal("second concurrent writer accepted")
			}
			if err := w.Update(3, 250); err != nil {
				t.Fatal(err)
			}
			if err := w.Delete(7); err != nil {
				t.Fatal(err)
			}
			if err := w.Insert(20, 50); err != nil {
				t.Fatal(err)
			}

			// A reader that starts during maintenance sees the old state
			// (schemes that allow it at all).
			if s.Name() != "Offline" && s.Name() != "S2PL" {
				rMid, err := s.BeginReader()
				if err != nil {
					t.Fatalf("reader during maintenance: %v", err)
				}
				if sum, count, err := rMid.ScanSum(); err != nil || sum != 1000 || count != 10 {
					t.Errorf("mid-maintenance scan = %d/%d %v, want pre-batch 1000/10", sum, count, err)
				}
				if v, ok, err := rMid.Get(3); err != nil || !ok || v != 100 {
					t.Errorf("mid-maintenance get(3) = %d %v %v, want 100", v, ok, err)
				}
				if v, ok, err := rMid.Get(7); err != nil || !ok || v != 100 {
					t.Errorf("mid-maintenance get(7) = %d %v %v, want still visible", v, ok, err)
				}
				if _, ok, _ := rMid.Get(20); ok {
					t.Error("mid-maintenance reader saw uncommitted insert")
				}
				rMid.Close()
			} else if s.Name() == "Offline" {
				if _, err := s.BeginReader(); !errors.Is(err, ErrReaderBlocked) {
					t.Errorf("offline reader during maintenance: %v, want ErrReaderBlocked", err)
				}
			}

			if err := w.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			r1, err := s.BeginReader()
			if err != nil {
				t.Fatal(err)
			}
			// 1000 - 100(del 7) + 150(upd 3) + 50(ins 20) = 1100, 10 tuples.
			if sum, count, err := r1.ScanSum(); err != nil || sum != 1100 || count != 10 {
				t.Errorf("post-commit scan = %d/%d %v, want 1100/10", sum, count, err)
			}
			if _, ok, _ := r1.Get(7); ok {
				t.Error("deleted key visible after commit")
			}
			if v, ok, _ := r1.Get(20); !ok || v != 50 {
				t.Errorf("inserted key = %d %v", v, ok)
			}
			r1.Close()

			if st := s.Stats(); st.StorageBytes <= 0 {
				t.Errorf("StorageBytes = %d", st.StorageBytes)
			}
		})
	}
}

// TestWriterAbortRestoresState aborts a batch on every scheme and checks
// readers see the pre-batch state.
func TestWriterAbortRestoresState(t *testing.T) {
	for _, s := range allSchemes(t) {
		s := s
		if s.Name() == "S2PL" || s.Name() == "Offline" {
			// These schemes have no before-images; their Abort contract
			// only covers clean writers (documented).
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			load(t, s, 5)
			w, err := s.BeginWriter()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Update(1, 999); err != nil {
				t.Fatal(err)
			}
			if err := w.Delete(2); err != nil {
				t.Fatal(err)
			}
			if err := w.Insert(50, 1); err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			r, err := s.BeginReader()
			if err != nil {
				t.Fatal(err)
			}
			sum, count, err := r.ScanSum()
			if err != nil || sum != 500 || count != 5 {
				t.Errorf("after abort: %d/%d %v, want 500/5", sum, count, err)
			}
			if v, ok, _ := r.Get(1); !ok || v != 100 {
				t.Errorf("aborted update visible: %d %v", v, ok)
			}
			if _, ok, _ := r.Get(50); ok {
				t.Error("aborted insert visible")
			}
			r.Close()
			// The scheme accepts a new writer afterwards.
			w2, err := s.BeginWriter()
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.Update(1, 101); err != nil {
				t.Fatal(err)
			}
			if err := w2.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Test2V2PLCertifyWaitsForReaders demonstrates §6's 2V2PL drawback: commit
// stalls until readers of modified tuples finish, while 2VNL commits
// immediately under an identical interleaving.
func Test2V2PLCertifyWaitsForReaders(t *testing.T) {
	measure := func(s Scheme) time.Duration {
		load(t, s, 4)
		r, err := s.BeginReader()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ScanSum(); err != nil { // reader touches every tuple
			t.Fatal(err)
		}
		w, err := s.BeginWriter()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Update(1, 7); err != nil {
			t.Fatal(err)
		}
		done := make(chan time.Duration, 1)
		start := time.Now()
		go func() {
			if err := w.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
			done <- time.Since(start)
		}()
		// Hold the reader open briefly, then release it.
		const hold = 150 * time.Millisecond
		time.Sleep(hold)
		r.Close()
		return <-done
	}
	v2, _ := NewTwoV2PL(Config{})
	if d := measure(v2); d < 100*time.Millisecond {
		t.Errorf("2V2PL commit returned in %v; it must wait for the reader (~150ms)", d)
	}
	vnl, _ := NewVNL(Config{}, 2)
	if d := measure(vnl); d > 50*time.Millisecond {
		t.Errorf("2VNL commit took %v; it must not wait for readers", d)
	}
}

// TestMV2PLChainCosts verifies the CFL-style extra I/O accounting: writes
// copy versions to the pool and old readers pay chain reads, while the
// BC92 cache absorbs recent-version reads.
func TestMV2PLChainCosts(t *testing.T) {
	plain, _ := NewMV2PL(Config{})
	cached, _ := NewMV2PL(Config{CacheSlots: 2})
	for _, s := range []*MV2PL{plain, cached} {
		load(t, s, 4)
		r, err := s.BeginReader() // ts = 1
		if err != nil {
			t.Fatal(err)
		}
		w, _ := s.BeginWriter()
		for k := int64(0); k < 4; k++ {
			if err := w.Update(k, 200); err != nil {
				t.Fatal(err)
			}
		}
		w.Commit()
		// The old reader must reconstruct version 1 of all four tuples.
		sum, count, err := r.ScanSum()
		if err != nil || sum != 400 || count != 4 {
			t.Fatalf("%s: old reader = %d/%d %v", s.Name(), sum, count, err)
		}
		r.Close()
		st := s.Stats()
		if s.cache > 0 {
			if st.CacheHits != 4 || st.ChainReads != 0 || st.PoolWrites != 0 {
				t.Errorf("cached: hits=%d chains=%d poolwrites=%d, want 4/0/0", st.CacheHits, st.ChainReads, st.PoolWrites)
			}
		} else {
			if st.PoolWrites != 4 || st.ChainReads != 4 {
				t.Errorf("plain: poolwrites=%d chains=%d, want 4/4", st.PoolWrites, st.ChainReads)
			}
			if st.PoolBytes == 0 {
				t.Error("plain: pool storage unaccounted")
			}
		}
	}
}

// TestMV2PLCacheSpill exceeds the BC92 cache so versions spill to the pool.
func TestMV2PLCacheSpill(t *testing.T) {
	s, _ := NewMV2PL(Config{CacheSlots: 1})
	load(t, s, 1)
	r1, _ := s.BeginReader() // ts=1, value 100
	for i := 0; i < 2; i++ {
		w, _ := s.BeginWriter()
		if err := w.Update(0, int64(200+i)); err != nil {
			t.Fatal(err)
		}
		w.Commit()
	}
	// Version history: 100 (vn1), 200 (vn2, cached), 201 (vn3, current).
	// 100 spilled to the pool.
	if st := s.Stats(); st.PoolWrites != 1 {
		t.Fatalf("spills = %d, want 1", st.PoolWrites)
	}
	if v, ok, err := r1.Get(0); err != nil || !ok || v != 100 {
		t.Errorf("ts=1 read = %d %v %v, want 100 via pool", v, ok, err)
	}
	r1.Close()
	r2, _ := s.BeginReader()
	if v, ok, _ := r2.Get(0); !ok || v != 201 {
		t.Errorf("current read = %d %v", v, ok)
	}
	r2.Close()
	if st := s.Stats(); st.ChainReads == 0 {
		t.Error("pool chain read not counted")
	}
}

// TestMV2PLGC reclaims unreachable pool records once readers advance.
func TestMV2PLGC(t *testing.T) {
	s, _ := NewMV2PL(Config{})
	load(t, s, 2)
	// Batch at vn=2, then take a reader at ts=2, then two more batches.
	w, _ := s.BeginWriter()
	w.Update(0, 0)
	w.Update(1, 0)
	w.Commit()
	old, _ := s.BeginReader() // ts = 2
	for i := 1; i < 3; i++ {
		w, _ := s.BeginWriter()
		w.Update(0, int64(i))
		w.Update(1, int64(i))
		w.Commit()
	}
	if st := s.Stats(); st.PoolWrites != 6 {
		t.Fatalf("pool writes = %d", st.PoolWrites)
	}
	// GC with the ts=2 reader active: only records older than version 2
	// (the initial v=100 versions) are reclaimable.
	if n := s.GC(); n != 2 {
		t.Errorf("GC with active ts=2 reader reclaimed %d, want 2", n)
	}
	if v, ok, err := old.Get(0); err != nil || !ok || v != 0 {
		t.Fatalf("reader after GC: %d %v %v, want version-2 value 0", v, ok, err)
	}
	old.Close()
	reclaimed := s.GC()
	if reclaimed == 0 {
		t.Error("GC reclaimed nothing with no readers")
	}
	// Current state still correct.
	r, _ := s.BeginReader()
	if sum, count, err := r.ScanSum(); err != nil || sum != 4 || count != 2 {
		t.Errorf("post-GC scan: %d/%d %v", sum, count, err)
	}
	r.Close()
}

// TestS2PLBlocking verifies both directions of §1's blocking complaint:
// the writer waits for readers, and readers wait for the writer.
func TestS2PLBlocking(t *testing.T) {
	s, _ := NewS2PL(Config{})
	load(t, s, 2)
	r, _ := s.BeginReader()
	if _, _, err := r.ScanSum(); err != nil {
		t.Fatal(err)
	}
	w, _ := s.BeginWriter()
	wrote := make(chan error, 1)
	go func() { wrote <- w.Update(0, 1) }()
	select {
	case err := <-wrote:
		t.Fatalf("S2PL writer proceeded under an active reader: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	r.Close()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	// Now a reader blocks behind the writer.
	r2, _ := s.BeginReader()
	read := make(chan error, 1)
	go func() {
		_, _, err := r2.ScanSum()
		read <- err
	}()
	select {
	case err := <-read:
		t.Fatalf("S2PL reader proceeded under an active writer: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	r2.Close()
	if st := s.Stats(); st.Locks.Waited < 2 {
		t.Errorf("lock waits = %d, want >= 2", st.Locks.Waited)
	}
}

// TestSchemesAgreeUnderRandomBatches runs an identical random batch history
// on every scheme and checks they converge to identical final states — a
// differential test of all five implementations against each other.
func TestSchemesAgreeUnderRandomBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type op struct {
		kind int // 0 insert, 1 update, 2 delete
		k, v int64
	}
	// Generate a valid history against a model.
	model := map[int64]int64{}
	var batches [][]op
	next := int64(100)
	for b := 0; b < 6; b++ {
		var batch []op
		for i := 0; i < 15; i++ {
			switch rng.Intn(3) {
			case 0:
				k := next
				next++
				v := rng.Int63n(1000)
				batch = append(batch, op{0, k, v})
				model[k] = v
			case 1:
				for k, v := range model {
					_ = v
					nv := rng.Int63n(1000)
					batch = append(batch, op{1, k, nv})
					model[k] = nv
					break
				}
			case 2:
				for k := range model {
					batch = append(batch, op{2, k, 0})
					delete(model, k)
					break
				}
			}
		}
		batches = append(batches, batch)
	}
	var wantSum int64
	for _, v := range model {
		wantSum += v
	}

	for _, s := range allSchemes(t) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			load(t, s, 0)
			// Seed inserts happen via the first batch only; load nothing.
			for _, batch := range batches {
				w, err := s.BeginWriter()
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range batch {
					var err error
					switch o.kind {
					case 0:
						err = w.Insert(o.k, o.v)
					case 1:
						err = w.Update(o.k, o.v)
					case 2:
						err = w.Delete(o.k)
					}
					if err != nil {
						t.Fatalf("op %+v: %v", o, err)
					}
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			r, err := s.BeginReader()
			if err != nil {
				t.Fatal(err)
			}
			sum, count, err := r.ScanSum()
			if err != nil {
				t.Fatal(err)
			}
			if sum != wantSum || count != len(model) {
				t.Errorf("final state %d/%d, want %d/%d", sum, count, wantSum, len(model))
			}
			for k, v := range model {
				got, ok, err := r.Get(k)
				if err != nil || !ok || got != v {
					t.Errorf("key %d = %d %v %v, want %d", k, got, ok, err, v)
				}
			}
			r.Close()
		})
	}
}

// TestVNLReaderExpiresAcrossBatches checks the adapter surfaces expiration.
func TestVNLReaderExpiresAcrossBatches(t *testing.T) {
	s, _ := NewVNL(Config{}, 2)
	load(t, s, 2)
	r, _ := s.BeginReader()
	for i := 0; i < 2; i++ {
		w, err := s.BeginWriter()
		if err != nil {
			t.Fatal(err)
		}
		w.Update(0, int64(i))
		w.Commit()
	}
	// Two batches begun since the reader's snapshot: expired.
	if _, _, err := r.ScanSum(); !errors.Is(err, ErrExpired) {
		t.Errorf("ScanSum = %v, want ErrExpired", err)
	}
	r.Close()
}

// TestConcurrentReadersAllNonBlockingSchemes hammers 2VNL and MV2PL with
// parallel readers during writer batches, checking every observed sum is a
// committed state (either the old or the new batch boundary).
func TestConcurrentReadersAllNonBlockingSchemes(t *testing.T) {
	mk := []func() Scheme{
		func() Scheme { s, _ := NewMV2PL(Config{}); return s },
		func() Scheme { s, _ := NewMV2PL(Config{CacheSlots: 2}); return s },
		func() Scheme { s, _ := NewVNL(Config{}, 3); return s },
	}
	for _, f := range mk {
		s := f()
		t.Run(s.Name(), func(t *testing.T) {
			const n = 16
			load(t, s, n) // sum = 1600
			valid := map[int64]bool{16 * 100: true}
			var validMu sync.RWMutex
			stop := make(chan struct{})
			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				for round := 1; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					w, err := s.BeginWriter()
					if err != nil {
						t.Error(err)
						return
					}
					// Shift every tuple to a new per-round value; the sum
					// of a committed state is n*100 + round*n.
					for k := int64(0); k < n; k++ {
						if err := w.Update(k, 100+int64(round)); err != nil {
							t.Error(err)
							return
						}
					}
					validMu.Lock()
					valid[int64(n)*(100+int64(round))] = true
					validMu.Unlock()
					if err := w.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			var readers sync.WaitGroup
			for g := 0; g < 4; g++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for i := 0; i < 200; i++ {
						r, err := s.BeginReader()
						if err != nil {
							t.Error(err)
							return
						}
						sum, count, err := r.ScanSum()
						r.Close()
						if errors.Is(err, ErrExpired) {
							continue
						}
						if err != nil {
							t.Error(err)
							return
						}
						if count != n {
							t.Errorf("count = %d", count)
							return
						}
						validMu.RLock()
						ok := valid[sum]
						validMu.RUnlock()
						if !ok {
							t.Errorf("reader observed non-committed sum %d", sum)
							return
						}
					}
				}()
			}
			readers.Wait()
			close(stop)
			writer.Wait()
		})
	}
}
