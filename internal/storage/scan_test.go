package storage

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/catalog"
)

// fillHeap inserts rows tuples (i, i, i, i) into a heap of perPage tuples a
// page and returns their RIDs.
func fillHeap(t *testing.T, rows, perPage int) (*Heap, []RID) {
	t.Helper()
	h, _ := newTestHeap(t, 4, 10, 10*perPage, 64)
	rids := make([]RID, rows)
	for i := range rids {
		v := int64(i)
		rid, err := h.Insert(intTuple(v, v, v, v))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	return h, rids
}

// ScanFilter delivers exactly the accepted tuples with their RIDs, page by
// page, and skips pages with no survivor.
func TestScanFilterSurvivors(t *testing.T) {
	h, rids := fillHeap(t, 100, 8)
	seen, calls := 0, 0
	err := h.ScanFilter(
		Filter{Pred: func(tu catalog.Tuple) (bool, error) { seen++; return tu[0].Int()%16 == 3, nil }},
		func(got []RID, tuples []catalog.Tuple) bool {
			calls++
			if len(got) != len(tuples) {
				t.Fatalf("%d RIDs for %d tuples", len(got), len(tuples))
			}
			for i, tu := range tuples {
				k := tu[0].Int()
				if k%16 != 3 || got[i] != rids[k] || !catalog.TuplesEqual(tu, intTuple(k, k, k, k)) {
					t.Errorf("delivered %v at %v", tu, got[i])
				}
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	// One key in 16 over pages of 8: every other page has no survivor.
	if seen != 100 || calls != 7 {
		t.Errorf("predicate saw %d tuples, fn ran %d times; want 100 and 7", seen, calls)
	}
	// Early stop.
	calls = 0
	_ = h.ScanFilter(Filter{Pred: func(catalog.Tuple) (bool, error) { return true, nil }},
		func([]RID, []catalog.Tuple) bool { calls++; return calls < 2 })
	if calls != 2 {
		t.Errorf("fn ran %d times after returning false on the second", calls)
	}
}

// A predicate error on page k is returned as is, nothing of page k reaches
// fn, and the page latch is released: a writer on that page completes.
func TestScanFilterPredicateError(t *testing.T) {
	h, rids := fillHeap(t, 40, 8)
	boom := errors.New("boom")
	bad := rids[21] // page 2
	delivered := 0
	err := h.ScanFilter(
		Filter{Pred: func(tu catalog.Tuple) (bool, error) {
			if tu[0].Int() == 21 {
				return false, boom
			}
			return true, nil
		}},
		func(got []RID, _ []catalog.Tuple) bool {
			for _, rid := range got {
				if rid.Page >= bad.Page {
					t.Errorf("tuple %v delivered from the failing page or beyond", rid)
				}
			}
			delivered += len(got)
			return true
		})
	if err != boom {
		t.Fatalf("err = %v, want the predicate's own error", err)
	}
	if delivered != 16 {
		t.Errorf("delivered %d tuples, want the 16 of pages 0 and 1", delivered)
	}
	done := make(chan error, 1)
	go func() {
		done <- h.Update(bad, intTuple(-1, -1, -1, -1))
	}()
	if err := <-done; err != nil { // deadlocks here if the latch leaked
		t.Fatal(err)
	}
}

// Scan callers may keep what they are given: a page's tuples are not
// overwritten by the next page, and appending to one tuple reallocates it
// instead of running into its neighbour.
func TestScanTuplesSurviveTheScan(t *testing.T) {
	h, _ := fillHeap(t, 64, 8)
	var kept []catalog.Tuple
	h.Scan(func(_ RID, tu catalog.Tuple) bool {
		if cap(tu) != len(tu) {
			t.Fatalf("tuple delivered with cap %d > len %d", cap(tu), len(tu))
		}
		kept = append(kept, tu)
		return true
	})
	for i := range kept {
		kept[i] = append(kept[i], catalog.NewInt(-1))
	}
	for i, tu := range kept {
		v := int64(i)
		if !catalog.TuplesEqual(tu, intTuple(v, v, v, v, -1)) {
			t.Errorf("kept[%d] = %v", i, tu)
		}
	}
}

// A scan racing Update on one page only ever observes a tuple that is
// wholly the old or wholly the new state — in the predicate, which reads the
// stored tuple under the latch, and in the copy delivered afterwards.
func TestScanNeverSeesATornTuple(t *testing.T) {
	h, rids := fillHeap(t, 8, 8) // one page
	whole := func(tu catalog.Tuple) bool {
		for _, v := range tu[1:] {
			if v.Int() != tu[0].Int() {
				return false
			}
		}
		return true
	}
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for gen := int64(100); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, rid := range rids {
				if err := h.Update(rid, intTuple(gen, gen, gen, gen)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				err := h.ScanFilter(
					Filter{Pred: func(tu catalog.Tuple) (bool, error) {
						if !whole(tu) {
							t.Errorf("predicate saw torn tuple %v", tu)
						}
						return true, nil
					}},
					func(_ []RID, tuples []catalog.Tuple) bool {
						for _, tu := range tuples {
							if !whole(tu) {
								t.Errorf("ScanFilter delivered torn tuple %v", tu)
							}
						}
						return true
					})
				if err != nil {
					t.Error(err)
				}
				h.Scan(func(_ RID, tu catalog.Tuple) bool {
					if !whole(tu) {
						t.Errorf("Scan delivered torn tuple %v", tu)
					}
					return true
				})
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
