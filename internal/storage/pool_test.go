package storage

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// refLRU is the reference the pool is checked against: a textbook LRU over
// a linked list, front = most recently used, counting the same I/O.
type refLRU struct {
	capacity int
	order    *list.List // of *refPage
	pages    map[PageKey]*list.Element
	stats    IOStats
}

type refPage struct {
	key   PageKey
	dirty bool
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, order: list.New(), pages: map[PageKey]*list.Element{}}
}

func (r *refLRU) touch(key PageKey, write bool) {
	if el, ok := r.pages[key]; ok {
		r.order.MoveToFront(el)
		if write {
			el.Value.(*refPage).dirty = true
		}
		r.stats.Hits++
		return
	}
	r.stats.Misses++
	if r.order.Len() >= r.capacity {
		old := r.order.Remove(r.order.Back()).(*refPage)
		delete(r.pages, old.key)
		if old.dirty {
			r.stats.WriteBacks++
		}
	}
	r.pages[key] = r.order.PushFront(&refPage{key: key, dirty: write})
}

func (r *refLRU) reset() {
	r.order.Init()
	clear(r.pages)
	r.stats = IOStats{}
}

// TestBufferPoolMatchesReferenceLRU drives the pool and a reference LRU with
// one randomized, skewed read/write sequence and requires identical hit,
// miss and write-back counts after every step. The §6 I/O experiments depend on
// the pool being exactly LRU single-threaded.
func TestBufferPoolMatchesReferenceLRU(t *testing.T) {
	const files = 3
	for _, capacity := range []int{1, 2, 7, 64, 1024} {
		t.Run(fmt.Sprint("capacity=", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			pages := uint64(4 * capacity)
			zipf := rand.NewZipf(rng, 1.2, 1, pages-1)
			p := NewBufferPool(capacity)
			ref := newRefLRU(capacity)
			steps := 20*capacity + 200
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					p.Reset()
					ref.reset()
				}
				n := int(zipf.Uint64())
				if rng.Intn(10) < 3 { // a uniform tail keeps old pages coming back
					n = rng.Intn(int(pages))
				}
				key := PageKey{File: n % files, Page: n / files}
				write := rng.Intn(4) == 0
				p.Touch(key, write)
				ref.touch(key, write)
				if got := p.Stats(); got != ref.stats {
					t.Fatalf("step %d: Touch(%v, %v): pool %v, reference %v", i, key, write, got, ref.stats)
				}
			}
		})
	}
}

// TestBufferPoolHitAllocatesNothing: a hit is one atomic stamp and one
// counter, so the read path of a cached page allocates nothing.
func TestBufferPoolHitAllocatesNothing(t *testing.T) {
	p := NewBufferPool(8)
	key := PageKey{1, 3}
	p.Touch(key, false)
	if n := testing.AllocsPerRun(1000, func() { p.Touch(key, true) }); n != 0 {
		t.Errorf("hit allocated %.1f times per Touch, want 0", n)
	}
}

// A heap without a pool serves every access: point reads and writes, and
// scans of both a clean and a dirty summarised page.
func TestHeapWithoutPool(t *testing.T) {
	h, err := NewHeap("t", 4, 20, 80, nil) // 4 slots per page
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetSummariser(sumTest, nil); err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for c := int64(0); c < 8; c++ {
		rid, err := h.Insert(sumTuple(1, false, c))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if got, err := h.Get(rids[2]); err != nil || got[2].Int() != 2 {
		t.Fatalf("Get = %v, %v", got, err)
	}
	// Page 1 gets a deleted tuple (so it is dirty at every version) and
	// loses a slot; page 0 stays clean at version 1.
	if err := h.Update(rids[4], sumTuple(1, true, 40)); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[5]); err != nil {
		t.Fatal(err)
	}
	clean, other := cleanAt(t, h, 1)
	if fmt.Sprint(clean, other) != "[0 1 2 3] [40 6 7]" {
		t.Errorf("clean %v, other %v; want page 0 clean and page 1's three live tuples dirty", clean, other)
	}
	if h.Len() != 7 {
		t.Errorf("Len = %d, want 7", h.Len())
	}
}

// Every method a pool-less database's callers reach is safe on a nil pool.
func TestNilBufferPool(t *testing.T) {
	var p *BufferPool
	p.Touch(PageKey{1, 0}, true)
	reg := obs.NewRegistry()
	p.Instrument(reg, "storage_pool")
	if names := reg.Names(); len(names) != 0 {
		t.Errorf("Instrument registered %v", names)
	}
	if s := p.Stats(); s != (IOStats{}) {
		t.Errorf("Stats = %v, want zero", s)
	}
	if c := p.Capacity(); c != 0 {
		t.Errorf("Capacity = %d, want 0", c)
	}
}
