package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
)

// The summary tests store tuples (vn, deleted, c, c): sumTest reads the
// first two columns as the summary's version and deletion.
func sumTest(t catalog.Tuple) (int64, bool) { return t[0].Int(), t[1].Bool() }

func sumTuple(vn int64, deleted bool, c int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(vn), catalog.NewBool(deleted), catalog.NewInt(c), catalog.NewInt(c)}
}

func summaryHeap(t *testing.T, pageSize int) *Heap {
	t.Helper()
	h, _ := newTestHeap(t, 4, 20, pageSize, 64)
	if err := h.SetSummariser(sumTest); err != nil {
		t.Fatal(err)
	}
	return h
}

// cleanAt scans h at vn and returns which tuples the clean-page hook saw.
func cleanAt(t *testing.T, h *Heap, vn int64) (clean, other []int64) {
	t.Helper()
	err := h.ScanFilter(Filter{
		Pred: func(tu catalog.Tuple) (bool, error) { other = append(other, tu[2].Int()); return false, nil },
		CleanPage: func(v PageView, sel []int32) ([]int32, error) {
			for si := 0; si < v.Slots(); si++ {
				if v.Live(si) {
					clean = append(clean, v.Value(si, 2).Int())
				}
			}
			return sel, nil
		},
		VN: vn,
	}, func([]RID, []catalog.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return clean, other
}

// Every writer folds into its page's summary: a page is clean at vn while
// its largest written version is at most vn and it holds no deleted tuple.
// The deleted count follows updates and deletes exactly; the version bound
// is never lowered, so a page whose newest tuple is overwritten or freed
// stays off the clean path until the reader's version reaches the bound.
func TestPageSummaryFolds(t *testing.T) {
	h := summaryHeap(t, 80) // 4 slots per page
	var rids []RID
	for c := int64(0); c < 4; c++ {
		rid, err := h.Insert(sumTuple(3, false, c))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	expect := func(step string, vn int64, wantClean bool) {
		t.Helper()
		if err := h.CheckSummary(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		clean, other := cleanAt(t, h, vn)
		if got := len(clean) > 0; got != wantClean || len(clean)+len(other) != h.Len() {
			t.Fatalf("%s: at vn %d clean saw %v, the predicate %v; want clean = %v", step, vn, clean, other, wantClean)
		}
	}
	expect("insert", 3, true)
	expect("insert, older reader", 2, false)

	if err := h.Update(rids[1], sumTuple(5, false, 1)); err != nil {
		t.Fatal(err)
	}
	expect("update to 5", 4, false)
	expect("update to 5", 5, true)

	if err := h.Update(rids[2], sumTuple(5, true, 2)); err != nil {
		t.Fatal(err)
	}
	expect("delete marked", 9, false)
	if err := h.Update(rids[2], sumTuple(3, false, 2)); err != nil {
		t.Fatal(err)
	}
	expect("delete restored", 5, true)

	// A rollback lowers the version: the bound stays at 5.
	if err := h.Update(rids[1], sumTuple(3, false, 1)); err != nil {
		t.Fatal(err)
	}
	expect("rolled back", 4, false)
	expect("rolled back", 5, true)

	if err := h.Update(rids[3], sumTuple(4, true, 3)); err != nil {
		t.Fatal(err)
	}
	expect("second delete marked", 9, false)
	if err := h.Delete(rids[3]); err != nil {
		t.Fatal(err)
	}
	expect("deleted tuple freed", 5, true)
	if _, err := h.Insert(sumTuple(7, true, 4)); err != nil { // reuses the slot
		t.Fatal(err)
	}
	expect("slot reused by a delete", 9, false)
}

// CheckSummary finds a count that drifted and a bound below a live tuple;
// SetSummariser refuses a heap that already holds pages; a heap without a
// summariser has no clean page.
func TestPageSummaryChecks(t *testing.T) {
	h := summaryHeap(t, 80)
	if _, err := h.Insert(sumTuple(3, true, 0)); err != nil {
		t.Fatal(err)
	}
	pg := h.getPage(0)
	pg.ndel = 0
	if err := h.CheckSummary(); err == nil {
		t.Error("CheckSummary accepted a wrong deleted count")
	}
	pg.ndel, pg.maxVN = 1, 2
	if err := h.CheckSummary(); err == nil {
		t.Error("CheckSummary accepted a bound below a live version")
	}
	if err := h.SetSummariser(sumTest); err == nil {
		t.Error("SetSummariser accepted a heap that holds pages")
	}

	plain, _ := newTestHeap(t, 4, 20, 80, 64)
	if _, err := plain.Insert(sumTuple(1, false, 0)); err != nil {
		t.Fatal(err)
	}
	if clean, _ := cleanAt(t, plain, 1<<62); len(clean) != 0 {
		t.Errorf("a heap without a summariser called a page clean: %v", clean)
	}
	if err := plain.CheckSummary(); err != nil {
		t.Error(err)
	}
}

// TestStressHeapSummary races writers that update, mark deleted, delete and
// re-insert tuples into reused slots against scans at a fixed version. Every
// tuple the clean-page hook sees must honour the clean-page contract —
// written at or before the reader's version and not deleted — and no tuple
// may be torn. The summary is folded under the page's write latch, so a
// reader holding the read latch never sees a tuple the summary does not yet
// cover; folding it after the latch is released fails here, under -race
// and on the contract check alike. Writes stay at or below the readers'
// version: a newer one would raise its page's bound for good (the bound is
// never lowered), so the deleted count is what moves pages on and off the
// clean path; TestPageSummaryFolds covers the bound.
func TestStressHeapSummary(t *testing.T) {
	const (
		writers  = 3
		perWrite = 8
		vn       = 10 // the readers' version
		rounds   = 2000
	)
	h := summaryHeap(t, 80) // 4 slots per page
	// One write in six marks its tuple deleted.
	next := func(rng *rand.Rand, c int64) catalog.Tuple {
		return sumTuple(int64(1+rng.Intn(vn)), rng.Intn(6) == 0, c)
	}
	var cleanSeen atomic.Int64
	contract := func(tu catalog.Tuple) error {
		if tu[2] != tu[3] {
			return fmt.Errorf("torn tuple %v", tu)
		}
		if v, deleted := sumTest(tu); v > vn || deleted {
			return fmt.Errorf("page clean at %d holds %v", vn, tu)
		}
		cleanSeen.Add(1)
		return nil
	}

	stop := make(chan struct{})
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		rids := make([]RID, perWrite)
		for k := range rids {
			rid, err := h.Insert(next(rng, 0))
			if err != nil {
				t.Fatal(err)
			}
			rids[k] = rid
		}
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for c := int64(1); ; c++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(perWrite)
				tu := next(rng, c)
				var err error
				switch rng.Intn(2) {
				case 0:
					err = h.Update(rids[k], tu)
				default:
					if err = h.Delete(rids[k]); err == nil {
						rids[k], err = h.Insert(tu)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < rounds && !t.Failed(); i++ {
				err := h.ScanFilter(Filter{
					Pred: func(tu catalog.Tuple) (bool, error) {
						if tu[2] != tu[3] {
							return false, errors.New("torn tuple")
						}
						return false, nil
					},
					CleanPage: func(v PageView, sel []int32) ([]int32, error) {
						for si := 0; si < v.Slots(); si++ {
							if !v.Live(si) {
								continue
							}
							if err := contract(v.Tuple(si)); err != nil {
								return sel, err
							}
						}
						return sel, nil
					},
					VN: vn,
				}, func([]RID, []catalog.Tuple) bool { return true })
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wwg.Wait()
	if err := h.CheckSummary(); err != nil {
		t.Error(err)
	}
	if cleanSeen.Load() == 0 {
		t.Error("no scan reached a clean page; the race was not exercised")
	}
	t.Logf("%d tuples read on clean pages", cleanSeen.Load())
}
