package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
)

func newTestHeap(t *testing.T, width, rowBytes, pageSize, poolPages int) (*Heap, *BufferPool) {
	t.Helper()
	pool := NewBufferPool(poolPages)
	h, err := NewHeap("t", width, rowBytes, pageSize, pool)
	if err != nil {
		t.Fatalf("NewHeap: %v", err)
	}
	return h, pool
}

func intTuple(vs ...int64) catalog.Tuple {
	t := make(catalog.Tuple, len(vs))
	for i, v := range vs {
		t[i] = catalog.NewInt(v)
	}
	return t
}

func TestHeapInsertGet(t *testing.T) {
	h, _ := newTestHeap(t, 2, 10, 100, 8)
	rid, err := h.Insert(intTuple(1, 2))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !catalog.TuplesEqual(got, intTuple(1, 2)) {
		t.Errorf("Get = %v", got)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHeapGetReturnsCopy(t *testing.T) {
	h, _ := newTestHeap(t, 1, 10, 100, 8)
	rid, _ := h.Insert(intTuple(1))
	got, _ := h.Get(rid)
	got[0] = catalog.NewInt(99)
	again, _ := h.Get(rid)
	if again[0].Int() != 1 {
		t.Error("Get exposed internal storage")
	}
}

func TestHeapUpdateInPlace(t *testing.T) {
	h, _ := newTestHeap(t, 1, 10, 100, 8)
	rid, _ := h.Insert(intTuple(1))
	if err := h.Update(rid, intTuple(2)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, _ := h.Get(rid)
	if got[0].Int() != 2 {
		t.Errorf("after update: %v", got)
	}
	// In place: same RID, still exactly one tuple, no new pages.
	if h.Len() != 1 {
		t.Errorf("Len = %d after in-place update", h.Len())
	}
	count := 0
	h.Scan(func(r RID, tu catalog.Tuple) bool {
		count++
		if r != rid {
			t.Errorf("scan found tuple at %v, want %v (update must not move tuples)", r, rid)
		}
		return true
	})
	if count != 1 {
		t.Errorf("scan saw %d tuples, want 1 — scans must never see two physical records for one tuple", count)
	}
}

func TestHeapDeleteAndSlotReuse(t *testing.T) {
	h, _ := newTestHeap(t, 1, 10, 30, 8) // 3 slots per page
	var rids []RID
	for i := int64(0); i < 6; i++ {
		rid, _ := h.Insert(intTuple(i))
		rids = append(rids, rid)
	}
	if h.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", h.NumPages())
	}
	if err := h.Delete(rids[1]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := h.Get(rids[1]); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("Get deleted = %v, want ErrNoSuchTuple", err)
	}
	if err := h.Delete(rids[1]); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("double Delete = %v, want ErrNoSuchTuple", err)
	}
	// Next insert must reuse the freed slot rather than allocate page 3.
	rid, _ := h.Insert(intTuple(100))
	if rid != rids[1] {
		t.Errorf("insert after delete went to %v, want reused slot %v", rid, rids[1])
	}
	if h.NumPages() != 2 {
		t.Errorf("NumPages = %d after reuse, want 2", h.NumPages())
	}
}

func TestHeapErrors(t *testing.T) {
	pool := NewBufferPool(4)
	if _, err := NewHeap("t", 0, 10, 100, pool); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewHeap("t", 1, 0, 100, pool); err == nil {
		t.Error("rowBytes 0 accepted")
	}
	if _, err := NewHeap("t", 1, 200, 100, pool); err == nil {
		t.Error("rowBytes > pageSize accepted")
	}
	h, _ := NewHeap("t", 1, 10, 100, pool)
	if _, err := h.Get(RID{5, 0}); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("Get bad page = %v", err)
	}
	if err := h.Update(RID{0, 0}, intTuple(1)); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("Update bad rid = %v", err)
	}
	// A tuple of another width is refused, and the slot keeps what it held.
	if _, err := h.Insert(intTuple(1, 2)); err == nil {
		t.Error("Insert of 2 values into a 1-value heap succeeded")
	}
	rid, err := h.Insert(intTuple(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Update(rid, intTuple(1, 2)); err == nil {
		t.Error("Update with 2 values succeeded")
	}
	if got, _ := h.Get(rid); !catalog.TuplesEqual(got, intTuple(1)) || h.Len() != 1 {
		t.Errorf("refused writes left %v, Len %d", got, h.Len())
	}
	// The refused Update released the latch.
	if err := h.Update(rid, intTuple(2)); err != nil {
		t.Fatal(err)
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h, _ := newTestHeap(t, 1, 10, 100, 8)
	for i := int64(0); i < 20; i++ {
		h.Insert(intTuple(i))
	}
	n := 0
	h.Scan(func(RID, catalog.Tuple) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("scan visited %d tuples after early stop, want 5", n)
	}
}

func TestSlotsPerPageAccounting(t *testing.T) {
	// A 42-byte row on an 8 KiB page (DailySales base schema) fits 195
	// tuples; the 51-byte extended schema fits 160. Fewer tuples per page
	// is the §6 scan-I/O effect.
	pool := NewBufferPool(4)
	base, _ := NewHeap("base", 4, 42, 8192, pool)
	ext, _ := NewHeap("ext", 7, 51, 8192, pool)
	if base.SlotsPerPage() != 195 || ext.SlotsPerPage() != 160 {
		t.Errorf("slots per page = %d, %d; want 195, 160", base.SlotsPerPage(), ext.SlotsPerPage())
	}
}

func TestBufferPoolCounts(t *testing.T) {
	p := NewBufferPool(2)
	k1, k2, k3 := PageKey{1, 0}, PageKey{1, 1}, PageKey{1, 2}
	p.Touch(k1, false) // miss
	p.Touch(k1, false) // hit
	p.Touch(k2, true)  // miss, dirty
	p.Touch(k3, false) // miss, evicts k1 (clean)
	s := p.Stats()
	if s.Misses != 3 || s.Hits != 1 || s.WriteBacks != 0 {
		t.Errorf("stats = %+v", s)
	}
	p.Touch(k1, false) // miss, evicts k2 (dirty) -> write-back
	s = p.Stats()
	if s.WriteBacks != 1 {
		t.Errorf("write-backs = %d, want 1", s.WriteBacks)
	}
	if s.Reads() != 4 || s.Total() != 5 {
		t.Errorf("Reads=%d Total=%d", s.Reads(), s.Total())
	}

	// The pool only counts: over a one-page pool every heap read and write
	// succeeds, and each move to another page evicts the page the heap
	// leaves, counted as a write-back when it is dirty.
	h, p := newTestHeap(t, 1, 10, 20, 1) // 2 slots per page
	var rids []RID
	for i := int64(0); i < 6; i++ { // pages 0, 0, 1, 1, 2, 2: evicts dirty 0 and 1
		rid, err := h.Insert(intTuple(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if _, err := h.Get(rids[0]); err != nil { // evicts dirty 2
		t.Fatal(err)
	}
	if err := h.Update(rids[2], intTuple(20)); err != nil { // evicts clean 0
		t.Fatal(err)
	}
	if err := h.Delete(rids[4]); err != nil { // evicts dirty 1
		t.Fatal(err)
	}
	// Pages 0, 1, 2: evicts dirty 2, then clean 0 and 1.
	if err := h.ScanFilter(Filter{}, func([]RID, []catalog.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Stats(), (IOStats{Hits: 3, Misses: 9, WriteBacks: 5}); got != want {
		t.Errorf("heap over a one-page pool: stats %+v, want %+v", got, want)
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	p := NewBufferPool(2)
	a, b, c := PageKey{1, 0}, PageKey{1, 1}, PageKey{1, 2}
	p.Touch(a, false)
	p.Touch(b, false)
	p.Touch(a, false) // a is now MRU
	p.Touch(c, false) // evicts b, not a
	p.Touch(a, false) // must be a hit
	s := p.Stats()
	if s.Hits != 2 {
		t.Errorf("hits = %d, want 2 (LRU should have kept page a)", s.Hits)
	}
}

func TestBufferPoolReset(t *testing.T) {
	p := NewBufferPool(4)
	p.Touch(PageKey{1, 0}, true)
	p.Touch(PageKey{1, 1}, true)
	p.Reset()
	if s := p.Stats(); s != (IOStats{}) {
		t.Errorf("after reset: %+v", s)
	}
	// Reset emptied the cache and counted no write-back.
	p.Touch(PageKey{1, 0}, false)
	if s := p.Stats(); s != (IOStats{Misses: 1}) {
		t.Errorf("first touch after reset: %+v, want one miss", s)
	}
}

func TestIOStatsSub(t *testing.T) {
	a := IOStats{Hits: 10, Misses: 5, WriteBacks: 2}
	b := IOStats{Hits: 4, Misses: 1, WriteBacks: 1}
	d := a.Sub(b)
	if d != (IOStats{Hits: 6, Misses: 4, WriteBacks: 1}) {
		t.Errorf("Sub = %+v", d)
	}
}

// TestHeapConcurrentReadersWriter checks the latch guarantee: concurrent
// scans during in-place updates never observe a torn tuple. Tuples are kept
// internally consistent (both fields always equal); any observed mismatch
// means a reader saw a half-applied update.
func TestHeapConcurrentReadersWriter(t *testing.T) {
	h, _ := newTestHeap(t, 2, 10, 100, 64)
	var rids []RID
	for i := int64(0); i < 50; i++ {
		rid, _ := h.Insert(intTuple(i, i))
		rids = append(rids, rid)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rid := range rids {
					v++
					_ = h.Update(rid, intTuple(v, v))
				}
			}
		}(int64(w) * 1000)
	}
	var torn int64
	var mu sync.Mutex
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				h.Scan(func(_ RID, tu catalog.Tuple) bool {
					if tu[0].Int() != tu[1].Int() {
						mu.Lock()
						torn++
						mu.Unlock()
					}
					return true
				})
			}
		}()
	}
	readers.Wait() // writers churn the whole time readers scan
	close(stop)
	writers.Wait()
	if torn != 0 {
		t.Errorf("observed %d torn tuples; page latches must prevent this", torn)
	}
}

func TestHeapConcurrentInserts(t *testing.T) {
	h, _ := newTestHeap(t, 2, 10, 50, 64) // 5 slots per page
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	ridCh := make(chan RID, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rid, err := h.Insert(intTuple(int64(g), int64(i)))
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				ridCh <- rid
			}
		}(g)
	}
	wg.Wait()
	close(ridCh)
	seen := make(map[RID]bool)
	for rid := range ridCh {
		if seen[rid] {
			t.Fatalf("RID %v assigned twice", rid)
		}
		seen[rid] = true
	}
	if h.Len() != goroutines*per {
		t.Errorf("Len = %d, want %d", h.Len(), goroutines*per)
	}
}

// Property: after an arbitrary interleaving of inserts and deletes, Len()
// matches the live set and Scan visits exactly the live tuples.
func TestHeapLiveSetProperty(t *testing.T) {
	f := func(ops []bool) bool {
		h, _ := NewHeap("p", 1, 8, 64, NewBufferPool(16))
		live := make(map[RID]int64)
		var next int64
		var order []RID
		for _, ins := range ops {
			if ins || len(order) == 0 {
				rid, err := h.Insert(intTuple(next))
				if err != nil {
					return false
				}
				live[rid] = next
				order = append(order, rid)
				next++
			} else {
				rid := order[len(order)-1]
				order = order[:len(order)-1]
				if err := h.Delete(rid); err != nil {
					return false
				}
				delete(live, rid)
			}
		}
		if h.Len() != len(live) {
			return false
		}
		seen := 0
		ok := true
		h.Scan(func(rid RID, tu catalog.Tuple) bool {
			seen++
			want, present := live[rid]
			if !present || tu[0].Int() != want {
				ok = false
			}
			return true
		})
		return ok && seen == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHeapBytesGrowth(t *testing.T) {
	h, _ := newTestHeap(t, 1, 10, 100, 8)
	if h.Bytes() != 0 {
		t.Errorf("empty heap Bytes = %d", h.Bytes())
	}
	for i := 0; i < 25; i++ { // 10 slots/page -> 3 pages
		h.Insert(intTuple(int64(i)))
	}
	if h.NumPages() != 3 || h.Bytes() != 300 {
		t.Errorf("pages=%d bytes=%d, want 3/300", h.NumPages(), h.Bytes())
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	h, _ := NewHeap("b", 3, 51, 8192, NewBufferPool(1024))
	tu := intTuple(1, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(tu); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScan(b *testing.B) {
	h, _ := NewHeap("b", 1, 51, 8192, NewBufferPool(1024))
	for i := int64(0); i < 10000; i++ {
		h.Insert(intTuple(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		h.Scan(func(RID, catalog.Tuple) bool { n++; return true })
		if n != 10000 {
			b.Fatalf("scan saw %d", n)
		}
	}
}

func ExampleHeap() {
	pool := NewBufferPool(16)
	h, _ := NewHeap("demo", 1, 16, 64, pool)
	rid, _ := h.Insert(catalog.Tuple{catalog.NewString("hello")})
	tu, _ := h.Get(rid)
	fmt.Println(tu)
	// Output: (hello)
}
