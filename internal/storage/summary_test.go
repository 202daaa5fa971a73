package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
)

// The summary tests store tuples (vn, deleted, c, c): sumTest reads the
// first two columns as the summary's version and deletion, and the heap
// keeps an image of the last two (sumImage).
func sumTest(t catalog.Tuple) (int64, bool) { return t[0].Int(), t[1].Bool() }

var sumImage = []Imaged{{Off: 2, Kind: catalog.TypeInt}, {Off: 3, Kind: catalog.TypeInt}}

func sumTuple(vn int64, deleted bool, c int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(vn), catalog.NewBool(deleted), catalog.NewInt(c), catalog.NewInt(c)}
}

func summaryHeap(t *testing.T, pageSize int) *Heap {
	t.Helper()
	h, _ := newTestHeap(t, 4, 20, pageSize, 64)
	if err := h.SetSummariser(sumTest, sumImage); err != nil {
		t.Fatal(err)
	}
	return h
}

// cleanAt scans h at vn and returns which tuples the page hook saw on pages
// clean at vn and which it saw elsewhere, or the predicate did. It fails the
// test when a slot's Current disagrees with its tuple's version and deletion,
// or a clean page holds a slot that is not current.
func cleanAt(t *testing.T, h *Heap, vn int64) (clean, other []int64) {
	t.Helper()
	err := h.ScanFilter(Filter{
		Pred: func(tu catalog.Tuple) (bool, error) { other = append(other, tu[2].Int()); return false, nil },
		Page: func(v PageView, sel []int32) ([]int32, error) {
			for si := 0; si < v.Slots(); si++ {
				if !v.Live(si) {
					continue
				}
				tu := v.Tuple(si)
				if w, deleted := sumTest(tu); v.Current(si) != (w <= vn && !deleted) || v.Clean() && !v.Current(si) {
					return sel, fmt.Errorf("slot %d holds %v: current %v, clean %v at %d", si, tu, v.Current(si), v.Clean(), vn)
				}
				if v.Clean() {
					clean = append(clean, tu[2].Int())
				} else {
					other = append(other, tu[2].Int())
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

// CheckSummary finds a count that drifted, a bound below a live tuple, a
// version vector entry that differs from its tuple's version or deletion, a
// version vector shorter than the arena, an image payload that differs from
// its tuple's and an image count that drifted; SetSummariser refuses a heap
// that already holds pages; a heap without a summariser has no clean page.
func TestPageSummaryChecks(t *testing.T) {
	h := summaryHeap(t, 80)
	if _, err := h.Insert(sumTuple(3, true, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(imgTuple(3, 1, catalog.Null)); err != nil {
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
	pg.maxVN = 3
	if err := h.CheckSummary(); err != nil {
		t.Fatalf("CheckSummary refused a mended summary: %v", err)
	}
	for _, c := range []struct {
		si   int
		vn   int64
		what string
	}{{0, 3, "a deletion's entry that is its version"}, {1, 2, "an entry below its tuple's version"}} {
		old := pg.vns[c.si]
		pg.vns[c.si] = c.vn
		if err := h.CheckSummary(); err == nil {
			t.Errorf("CheckSummary accepted %s", c.what)
		}
		pg.vns[c.si] = old
	}
	pg.vns = pg.vns[:1]
	if err := h.CheckSummary(); err == nil {
		t.Error("CheckSummary accepted a version vector shorter than the arena")
	}
	pg.vns = pg.vns[:cap(pg.live)]
	pg.ints[0][1] = 7
	if err := h.CheckSummary(); err == nil {
		t.Error("CheckSummary accepted an image payload that differs from its tuple's")
	}
	pg.ints[0][1] = 1
	pg.nbad[1] = 0
	if err := h.CheckSummary(); err == nil {
		t.Error("CheckSummary accepted an image that counts no NULL where a live slot holds one")
	}
	pg.nbad[1] = 1
	pg.ints[1] = pg.ints[1][:1]
	if err := h.CheckSummary(); err == nil {
		t.Error("CheckSummary accepted an image vector shorter than the arena")
	}
	if err := h.SetSummariser(sumTest, nil); err == nil {
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

// imgTuple is a tuple (vn, false, c, x): x is what the image's second
// column sees.
func imgTuple(vn, c int64, x catalog.Value) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(vn), catalog.NewBool(false), catalog.NewInt(c), x}
}

// imageAt scans h at vn and returns, for page 0 if it is clean there, the
// number of slots in use and a copy of its image of offset off as kind, nil
// when the page offers none.
func imageAt(t *testing.T, h *Heap, vn int64, off int, kind catalog.Type) (slots int, vec []int64) {
	t.Helper()
	err := h.ScanFilter(Filter{
		Page: func(v PageView, sel []int32) ([]int32, error) {
			if v.Clean() && slots == 0 {
				slots = v.Slots()
				vec = slices.Clone(v.Ints(off, kind))
			}
			return sel, nil
		},
		VN: vn,
	}, func([]RID, []catalog.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return slots, vec
}

// Every writer folds into its page's image: a page offers a column's vector
// while every live value there is of the column's kind, and the vector holds
// each live slot's payload. A NULL or a value of another kind withdraws the
// vector until an update or a delete takes that value out; a reused slot
// gets its new payload; the vectors grow with the arena; an offset the heap
// does not image, or a kind it images the offset as not, has no vector.
func TestPageImageFolds(t *testing.T) {
	h := summaryHeap(t, 160) // 8 slots per page
	var rids []RID
	for c := int64(0); c < 3; c++ {
		rid, err := h.Insert(imgTuple(1, c, catalog.NewInt(10*c)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	expect := func(step string, off int, want []int64) {
		t.Helper()
		if err := h.CheckSummary(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		slots, vec := imageAt(t, h, 1, off, catalog.TypeInt)
		live := h.getPage(0).live
		var got []int64
		for si, x := range vec {
			if live[si] {
				got = append(got, x)
			}
		}
		if vec != nil && len(vec) != slots || fmt.Sprint(got) != fmt.Sprint(want) || (vec == nil) != (want == nil) {
			t.Fatalf("%s: offset %d offers %v over %d slots (live payloads %v), want %v", step, off, vec, slots, got, want)
		}
	}
	expect("insert", 2, []int64{0, 1, 2})
	expect("insert", 3, []int64{0, 10, 20})
	if cap(h.getPage(0).live) != 4 || len(h.getPage(0).ints[1]) != 4 {
		t.Fatalf("the image spans %d slots of an arena of %d, want 4 of 4", len(h.getPage(0).ints[1]), cap(h.getPage(0).live))
	}
	if _, vec := imageAt(t, h, 1, 2, catalog.TypeDate); vec != nil {
		t.Errorf("an INT image is offered as a DATE one: %v", vec)
	}
	if _, vec := imageAt(t, h, 1, 0, catalog.TypeInt); vec != nil {
		t.Errorf("an offset without an image offers %v", vec)
	}

	if err := h.Update(rids[1], imgTuple(1, 1, catalog.Null)); err != nil {
		t.Fatal(err)
	}
	expect("one NULL", 3, nil)
	expect("one NULL, other column", 2, []int64{0, 1, 2})
	if err := h.Update(rids[1], imgTuple(1, 1, catalog.NewFloat(1))); err != nil {
		t.Fatal(err)
	}
	expect("NULL overwritten by a FLOAT", 3, nil)
	rid, err := h.Insert(imgTuple(1, 3, catalog.NewString("x")))
	if err != nil {
		t.Fatal(err)
	}
	expect("two of another kind", 3, nil)
	if err := h.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	expect("one of another kind freed", 3, nil)
	if err := h.Update(rid, imgTuple(1, 3, catalog.NewInt(30))); err != nil {
		t.Fatal(err)
	}
	expect("the other overwritten", 3, []int64{0, 20, 30})
	if _, err := h.Insert(imgTuple(1, 4, catalog.NewInt(40))); err != nil { // reuses slot 1
		t.Fatal(err)
	}
	expect("slot reused", 3, []int64{0, 40, 20, 30})
	for c := int64(5); c < 8; c++ {
		if _, err := h.Insert(imgTuple(1, c, catalog.NewInt(10*c))); err != nil {
			t.Fatal(err)
		}
	}
	expect("arena grown", 3, []int64{0, 40, 20, 30, 50, 60, 70})
}

// TestStressHeapSummary races writers that update, mark deleted, delete and
// re-insert tuples into reused slots against scans at a fixed version. Every
// tuple the page hook sees on a clean page must honour the clean-page
// contract — written at or before the reader's version and not deleted —
// every slot the version vector calls current must hold such a tuple and
// every other slot must not, and no tuple may be torn. The summary is folded under the page's write latch, so a
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
	var cleanSeen, currentSeen atomic.Int64
	contract := func(v PageView, si int) error {
		tu := v.Tuple(si)
		if tu[2] != tu[3] {
			return fmt.Errorf("torn tuple %v", tu)
		}
		w, deleted := sumTest(tu)
		if v.Clean() && (w > vn || deleted) {
			return fmt.Errorf("page clean at %d holds %v", vn, tu)
		}
		if v.Current(si) != (w <= vn && !deleted) {
			return fmt.Errorf("slot %d holds %v: current %v at %d", si, tu, v.Current(si), vn)
		}
		if v.Clean() {
			cleanSeen.Add(1)
		} else if v.Current(si) {
			currentSeen.Add(1)
		}
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
					Page: func(v PageView, sel []int32) ([]int32, error) {
						for si := 0; si < v.Slots(); si++ {
							if !v.Live(si) {
								continue
							}
							if err := contract(v, si); err != nil {
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
	if cleanSeen.Load() == 0 || currentSeen.Load() == 0 {
		t.Errorf("%d tuples read on clean pages, %d current ones on dirty pages: want both; the race was not exercised", cleanSeen.Load(), currentSeen.Load())
	}
	t.Logf("%d tuples read on clean pages, %d current ones on dirty pages", cleanSeen.Load(), currentSeen.Load())
}

// TestStressHeapImage races writers that overwrite and free slots, and
// re-insert into the freed ones, and an appender that grows fresh pages'
// arenas, against scans whose page hook checks the image under its read
// latch: each count of values not of the column's kind is exact, a page
// offers a column's vector exactly when that count is zero, and every entry
// of an offered vector equals the payload of the tuple read in place. Every
// tenth scan is a CheckSummary instead, which checks each page's version
// vector, summary and image under its latch while the writers run. A writer
// that folds the image or the version vector after releasing its latch, or
// an arena that grows without its vectors, fails here, under -race and on
// the checks alike. One write in four stores a NULL or a FLOAT in the imaged
// offset 3, so pages move on and off the image.
func TestStressHeapImage(t *testing.T) {
	const (
		writers  = 3
		perWrite = 8
		appended = 256
		vn       = 10
		rounds   = 1000
	)
	h := summaryHeap(t, 160) // 8 slots per page
	// x is offset 3's value for c: a NULL, a FLOAT or c itself.
	x := func(c int64) catalog.Value {
		switch c % 8 {
		case 0:
			return catalog.Null
		case 1:
			return catalog.NewFloat(float64(c))
		}
		return catalog.NewInt(c)
	}
	next := func(rng *rand.Rand, c int64) catalog.Tuple { return imgTuple(int64(1+rng.Intn(vn)), c, x(c)) }

	var imaged, withdrawn atomic.Int64
	check := func(v PageView) error {
		for c, im := range sumImage {
			bad := 0
			for si := 0; si < v.Slots(); si++ {
				if !v.Live(si) {
					continue
				}
				tu := v.Tuple(si)
				if tu[3] != x(tu[2].Int()) {
					return fmt.Errorf("torn tuple %v", tu)
				}
				if tu[im.Off].Kind() != im.Kind {
					bad++
				}
			}
			if v.pg.nbad[c] != bad {
				return fmt.Errorf("offset %d: image counts %d values of another kind, the page holds %d", im.Off, v.pg.nbad[c], bad)
			}
			vec := v.Ints(im.Off, im.Kind)
			if (vec != nil) != (bad == 0) {
				return fmt.Errorf("offset %d: %d values of another kind, vector offered: %v", im.Off, bad, vec != nil)
			}
			if vec == nil {
				withdrawn.Add(1)
				continue
			}
			imaged.Add(1)
			for si := 0; si < v.Slots(); si++ {
				if v.Live(si) && vec[si] != v.Tuple(si)[im.Off].Int() {
					return fmt.Errorf("offset %d slot %d: image %d, tuple %v", im.Off, si, vec[si], v.Tuple(si))
				}
			}
		}
		return nil
	}

	stop := make(chan struct{})
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		rids := make([]RID, perWrite)
		for k := range rids {
			rid, err := h.Insert(next(rng, int64(k)))
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
				var err error
				if rng.Intn(2) == 0 {
					err = h.Update(rids[k], next(rng, c))
				} else if err = h.Delete(rids[k]); err == nil {
					rids[k], err = h.Insert(next(rng, c))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		rng := rand.New(rand.NewSource(writers))
		for c := int64(0); c < appended; c++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := h.Insert(next(rng, c)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < rounds && !t.Failed(); i++ {
				if i%10 == 9 {
					if err := h.CheckSummary(); err != nil {
						t.Error(err)
					}
					continue
				}
				err := h.ScanFilter(Filter{
					Page: func(v PageView, sel []int32) ([]int32, error) { return sel, check(v) },
					VN:   vn,
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
	if imaged.Load() == 0 || withdrawn.Load() == 0 {
		t.Errorf("%d vectors offered and %d withdrawn: want both", imaged.Load(), withdrawn.Load())
	}
	t.Logf("%d vectors offered, %d withdrawn", imaged.Load(), withdrawn.Load())
}
