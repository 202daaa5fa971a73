package storage

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
)

// A page's arena doubles with its slots up to the page's slot count, and a
// deleted slot keeps no value: the arena holds zero Values there, so no
// string of a deleted tuple stays reachable.
func TestHeapArenaGrowthAndClearing(t *testing.T) {
	h, _ := newTestHeap(t, 2, 10, 60, 8) // 6 slots per page
	var rids []RID
	for i, wantCap := range []int{1, 2, 4, 4, 6, 6} {
		rid, err := h.Insert(catalog.Tuple{catalog.NewInt(int64(i)), catalog.NewString("keep me")})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		pg := h.getPage(0)
		if rid.Page != 0 || cap(pg.live) != wantCap || len(pg.vals) != wantCap*2 {
			t.Fatalf("insert %d at %v: %d slots of arena over %d values, want %d slots", i, rid, cap(pg.live), len(pg.vals), wantCap)
		}
	}
	if err := h.Delete(rids[3]); err != nil {
		t.Fatal(err)
	}
	pg := h.getPage(0)
	for _, v := range pg.tuple(3) {
		if v != catalog.Null {
			t.Fatalf("deleted slot still holds %v", pg.tuple(3))
		}
	}
	if rid, _ := h.Insert(intTuple(7, 7)); rid != rids[3] {
		t.Fatalf("insert went to %v, want the freed slot %v", rid, rids[3])
	}
}

// Writes copy into the arena: Update, and Insert into a page with a free
// slot, allocate nothing; ScanFilter with a predicate that keeps nothing allocates the same for ten
// pages as for one.
func TestHeapArenaAllocations(t *testing.T) {
	h, _ := newTestHeap(t, 4, 10, 80, 64) // 8 slots per page
	rid, err := h.Insert(intTuple(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	tu := intTuple(5, 6, 7, 8)
	if n := testing.AllocsPerRun(200, func() { _ = h.Update(rid, tu) }); n != 0 {
		t.Errorf("Update allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		r, _ := h.Insert(tu)
		_ = h.Delete(r)
	}); n != 0 {
		t.Errorf("Insert into a free slot (and its Delete) allocates %.1f times, want 0", n)
	}

	reject := func(catalog.Tuple) (bool, error) { return false, nil }
	deliver := func([]RID, []catalog.Tuple) bool { return true }
	scanAllocs := func(pages int) float64 {
		h, _ := newTestHeap(t, 4, 10, 80, 64)
		for i := 0; i < pages*8; i++ {
			if _, err := h.Insert(intTuple(1, 2, 3, 4)); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() { _ = h.ScanFilter(Filter{Pred: reject}, deliver) })
	}
	if one, ten := scanAllocs(1), scanAllocs(10); ten != one {
		t.Errorf("rejecting ScanFilter allocates %.1f times over one page, %.1f over ten: want no per-page allocation", one, ten)
	}
}

// TestStressHeapArena races writers that overwrite, delete and re-insert
// tuples in place against readers on every read path. Each writer stores one
// counter in every column of its tuple and raises it on every write, so a
// reader must only ever see tuples whose columns agree (no torn tuple) and
// never a counter its writer had already overwritten or deleted before the
// read began — in particular not a deleted tuple's values once its slot is
// reused.
func TestStressHeapArena(t *testing.T) {
	const (
		writers  = 3
		perWrite = 6 // tuples each writer owns
		width    = 4
		rounds   = 300
	)
	h, _ := newTestHeap(t, width, 10, 80, 64) // 8 slots per page
	// gone[w*perWrite+k] is the highest counter of writer w's k-th tuple
	// that has been overwritten or deleted.
	var gone [writers * perWrite]atomic.Int64
	// A stored counter c of writer w's k-th tuple is (w*perWrite+k)<<40 | c.
	encode := func(w, k int, c int64) int64 { return int64(w*perWrite+k)<<40 | c }
	value := func(v int64) catalog.Tuple {
		tu := make(catalog.Tuple, width)
		for i := range tu {
			tu[i] = catalog.NewInt(v)
		}
		return tu
	}
	// check reports a torn tuple, or a value already gone when the reader
	// took its snapshot of the floors.
	check := func(tu catalog.Tuple, floors *[writers * perWrite]int64) error {
		for _, v := range tu[1:] {
			if v != tu[0] {
				return errors.New("torn tuple")
			}
		}
		owner, c := int(tu[0].Int()>>40), tu[0].Int()&(1<<40-1)
		if owner < 0 || owner >= len(floors) {
			return errors.New("tuple of no writer")
		}
		if c <= floors[owner] {
			return errors.New("tuple overwritten or deleted before the read began")
		}
		return nil
	}
	snapshot := func() *[writers * perWrite]int64 {
		var f [writers * perWrite]int64
		for i := range f {
			f[i] = gone[i].Load()
		}
		return &f
	}

	stop := make(chan struct{})
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		rids := make([]RID, perWrite)
		counters := make([]int64, perWrite)
		for k := range rids {
			counters[k] = 1
			rid, err := h.Insert(value(encode(w, k, 1)))
			if err != nil {
				t.Fatal(err)
			}
			rids[k] = rid
		}
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(perWrite)
				old := counters[k]
				counters[k]++
				next := value(encode(w, k, counters[k]))
				var err error
				switch rng.Intn(2) {
				case 0:
					err = h.Update(rids[k], next)
				default:
					if err = h.Delete(rids[k]); err == nil {
						gone[w*perWrite+k].Store(old)
						rids[k], err = h.Insert(next)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				gone[w*perWrite+k].Store(old)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < rounds; i++ {
				floors := snapshot()
				var seen []RID
				err := h.ScanFilter(
					Filter{Pred: func(tu catalog.Tuple) (bool, error) { return true, check(tu, floors) }},
					func(rids []RID, tuples []catalog.Tuple) bool {
						for j, tu := range tuples {
							if err := check(tu, floors); err != nil {
								t.Errorf("ScanFilter delivered %v: %v", tu, err)
							}
							seen = append(seen, rids[j])
						}
						return true
					})
				if err != nil {
					t.Errorf("ScanFilter predicate: %v", err)
				}
				floors = snapshot()
				h.Scan(func(_ RID, tu catalog.Tuple) bool {
					if err := check(tu, floors); err != nil {
						t.Errorf("Scan delivered %v: %v", tu, err)
					}
					return true
				})
				floors = snapshot()
				for _, rid := range seen {
					tu, err := h.Get(rid)
					if errors.Is(err, ErrNotFound) {
						continue
					}
					if err != nil {
						t.Error(err)
					} else if err := check(tu, floors); err != nil {
						t.Errorf("Get(%v) = %v: %v", rid, tu, err)
					}
				}
				if t.Failed() {
					return
				}
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wwg.Wait()
	if n := h.Len(); n != writers*perWrite {
		t.Errorf("Len = %d after the race, want %d", n, writers*perWrite)
	}
}
