package storage

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/vfs"
)

// TestPageCodecRoundTrip: encodePage/decodePage must round-trip every
// value kind plus dead slots, since the mirror file is read back by
// offline tooling, must rebuild the version summary the image does not
// carry, and must refuse an image whose tuples have another width.
func TestPageCodecRoundTrip(t *testing.T) {
	tuples := []catalog.Tuple{
		{catalog.NewInt(-42), catalog.NewFloat(3.5), catalog.NewString("hello"), catalog.NewBool(true), catalog.NewDate(19000)},
		nil, // dead
		{catalog.NewInt(0), catalog.NewBool(false), catalog.Null, catalog.Null, catalog.Null},
		{catalog.NewString(""), catalog.Null, catalog.Null, catalog.Null, catalog.NewInt(1 << 62)},
	}
	pg := &page{w: 5}
	for _, tu := range tuples {
		si := pg.addSlot(len(tuples))
		if tu != nil {
			copy(pg.tuple(si), tu)
			pg.live[si] = true
			pg.nlive++
		}
	}
	buf := encodePage(pg)
	// The version is column 0 when it is an INT; column 3 TRUE marks a
	// deletion.
	sum := func(t catalog.Tuple) (int64, bool) {
		var vn int64
		if t[0].Kind() == catalog.TypeInt {
			vn = t[0].Int()
		}
		return vn, t[3].Kind() == catalog.TypeBool && t[3].Bool()
	}
	got, err := decodePage(buf, 5, sum)
	if err != nil {
		t.Fatalf("decodePage: %v", err)
	}
	if got.maxVN != 0 || got.ndel != 1 {
		t.Fatalf("decoded summary: bound %d, %d deleted; want 0, 1", got.maxVN, got.ndel)
	}
	if len(got.live) != len(tuples) || got.nlive != pg.nlive {
		t.Fatalf("decoded %d slots, %d live; want %d, %d", len(got.live), got.nlive, len(tuples), pg.nlive)
	}
	for si, tu := range tuples {
		if got.live[si] != (tu != nil) {
			t.Fatalf("slot %d live = %v", si, got.live[si])
		}
		if !catalog.TuplesEqual(got.tuple(si), pg.tuple(si)) {
			t.Fatalf("slot %d decoded %v, want %v", si, got.tuple(si), pg.tuple(si))
		}
	}
	if _, err := decodePage(buf, 4, nil); err == nil {
		t.Fatal("decodePage accepted 5-value tuples into a 4-value page")
	}
}

// TestSetBackingMirrorsEvictedPages: with a backing file attached and a
// one-page pool, filling several pages forces eviction write-backs; the
// mirrored images must decode to the heap's logical content.
func TestSetBackingMirrorsEvictedPages(t *testing.T) {
	fs := vfs.NewFaultFS(nil)
	f, err := fs.Create("t.heap")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newTestHeap(t, 2, 20, 60, 1) // 3 slots per page
	h.SetBacking(f)
	const n = 9 // three pages
	for k := int64(0); k < n; k++ {
		if _, err := h.Insert(intTuple(k, k*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SyncBacking(); err != nil {
		t.Fatal(err)
	}
	raw, err := fs.DurableBytes("t.heap")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int64{}
	capacity := 4*60 + 1024
	for pi := 0; pi*capacity < len(raw); pi++ {
		img := raw[pi*capacity:]
		if len(img) < 4 {
			break
		}
		size := int(uint32(img[0]) | uint32(img[1])<<8 | uint32(img[2])<<16 | uint32(img[3])<<24)
		if size == 0 {
			continue
		}
		pg, err := decodePage(img[4:4+size], 2, nil)
		if err != nil {
			t.Fatalf("page %d: %v", pi, err)
		}
		for si, live := range pg.live {
			if live {
				tu := pg.tuple(si)
				seen[tu[0].Int()] = tu[1].Int()
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("mirror holds %d live tuples, want %d", len(seen), n)
	}
	for k := int64(0); k < n; k++ {
		if seen[k] != k*10 {
			t.Fatalf("mirror tuple %d = %d, want %d", k, seen[k], k*10)
		}
	}
	if err := h.CloseBacking(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolFlushSurfacesWriterErrors: a registered writer that fails must
// surface from Flush, keep the page dirty for the retry, and succeed once
// the writer heals.
func TestPoolFlushSurfacesWriterErrors(t *testing.T) {
	pool := NewBufferPool(4)
	boom := errors.New("disk on fire")
	failing := true
	var wrote []int
	pool.RegisterWriter(7, func(page int) error {
		if failing {
			return boom
		}
		wrote = append(wrote, page)
		return nil
	})
	if err := pool.Touch(PageKey{7, 0}, true); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want the writer's", err)
	}
	// The page stayed dirty: a healed retry writes it.
	failing = false
	if err := pool.Flush(); err != nil {
		t.Fatalf("healed Flush: %v", err)
	}
	if len(wrote) != 1 || wrote[0] != 0 {
		t.Fatalf("healed Flush wrote %v, want [0]", wrote)
	}
	// And now it is clean: another Flush writes nothing.
	wrote = nil
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 0 {
		t.Fatalf("clean Flush rewrote %v", wrote)
	}
}

// TestPoolEvictionWriterErrorLatchedInErr: an eviction write-back failure
// surfaces from the Touch that caused it AND is latched in Err() — but the
// eviction itself still proceeds, because the WAL, not the mirror, is the
// durability authority.
func TestPoolEvictionWriterErrorLatchedInErr(t *testing.T) {
	pool := NewBufferPool(1)
	boom := errors.New("disk on fire")
	pool.RegisterWriter(7, func(page int) error { return boom })
	if err := pool.Touch(PageKey{7, 0}, true); err != nil {
		t.Fatal(err)
	}
	// Inserting a second page evicts the dirty first one; its write-back
	// fails but the insert goes through.
	if err := pool.Touch(PageKey{7, 1}, true); !errors.Is(err, boom) {
		t.Fatalf("Touch during failed write-back = %v, want the writer's error", err)
	}
	if err := pool.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want the latched writer error", err)
	}
	// The victim was still evicted and the new page admitted: touching the
	// new page again is a hit, the old one a miss.
	before := pool.Stats()
	if err := pool.Touch(PageKey{7, 1}, false); err != nil {
		t.Fatal(err)
	}
	if d := pool.Stats().Sub(before); d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("re-touch of the admitted page: %+v, want a pure hit", d)
	}
	pool.Reset()
	if err := pool.Err(); err != nil {
		t.Fatalf("Err() after Reset = %v, want nil", err)
	}
}

// TestWriteBackBudgetError: a page whose encoded image exceeds the backing
// slot budget must fail loudly, not corrupt a neighbor's offset.
func TestWriteBackBudgetError(t *testing.T) {
	fs := vfs.NewFaultFS(nil)
	f, err := fs.Create("t.heap")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newTestHeap(t, 1, 20, 60, 4)
	h.SetBacking(f)
	// A tuple far larger than the 4*pageBytes+1024 budget: rowBytes is a
	// capacity hint, not an enforced limit, so this inserts fine but must
	// be rejected at mirror time.
	big := catalog.Tuple{catalog.NewString(strings.Repeat("x", 4*60+2048))}
	if _, err := h.Insert(big); err != nil {
		t.Fatal(err)
	}
	err = h.SyncBacking()
	if err == nil {
		t.Fatal("SyncBacking mirrored a page image over its budget")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("budget error = %v", err)
	}
}
