// Package storage implements the heap storage engine the warehouse runs on:
// slotted pages holding whole tuples, a buffer pool that accounts for
// logical page I/O, per-page short-duration latches, and in-place tuple
// updates.
//
// The 2VNL paper (§4) requires exactly two properties of the underlying
// DBMS's storage layer, and this package provides both:
//
//  1. While a tuple is being modified a latch (short-duration lock) is held
//     on its page so readers never observe a partly-modified tuple; the
//     latch is released as soon as the tuple is modified, not at commit.
//  2. Physical tuple updates happen in place, so a scan never returns two
//     physical records for one tuple.
//
// The buffer pool is optional: a heap without one (a nil pool) records no
// page access at all, which is how every serving store runs. Where a pool is
// configured it persists nothing — the engine is in-memory — but it
// simulates a page cache with LRU eviction and counts hits, misses
// (reads), and dirty-page write-backs. Those counters power the paper's §6
// I/O-overhead comparison between 2VNL (both tuple versions in one physical
// location, zero extra I/O) and MV2PL version-pool designs (chain walks and
// copy-outs cost extra I/O), so replacement must be exact LRU. A hit
// stamps the page with one atomic store and takes no lock; a miss picks
// its victim from a lazily re-keyed min-heap of stamps in amortised
// O(log capacity), never by scanning the cache.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// DefaultPageSize is the page size, in bytes, used when a Heap is created
// with size 0. 8 KiB matches common DBMS defaults.
const DefaultPageSize = 8192

// PageKey identifies a page globally: which file (heap) and which page
// within it.
type PageKey struct {
	File int
	Page int
}

// IOStats is a snapshot of buffer-pool activity. Misses are logical read
// I/Os; WriteBacks are logical write I/Os (dirty evictions).
type IOStats struct {
	Hits       int64
	Misses     int64
	WriteBacks int64
}

// Reads returns the logical read I/O count (buffer misses).
func (s IOStats) Reads() int64 { return s.Misses }

// Total returns all logical I/Os (reads plus write-backs).
func (s IOStats) Total() int64 { return s.Misses + s.WriteBacks }

// Sub returns the delta between two snapshots (s - prev).
func (s IOStats) Sub(prev IOStats) IOStats {
	return IOStats{
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		WriteBacks: s.WriteBacks - prev.WriteBacks,
	}
}

func (s IOStats) String() string {
	return fmt.Sprintf("hits=%d reads=%d writebacks=%d", s.Hits, s.Misses, s.WriteBacks)
}

// poolEntry is one cached page. Recency is a logical-clock stamp rather
// than a position in a linked list, so a cache hit updates it with one
// atomic store instead of a latched list splice.
type poolEntry struct {
	key   PageKey
	stamp atomic.Int64
	dirty atomic.Bool
}

// poolCounters is the optional observability mirror, published atomically
// so the lock-free hit path can read it without a latch.
type poolCounters struct {
	hits, misses, writeBacks *obs.Counter
}

// victim is one item of the eviction heap: a cached entry and the stamp it
// was keyed by when last placed in the heap.
type victim struct {
	e     *poolEntry
	stamp int64
}

// BufferPool simulates a fixed-capacity page cache with LRU replacement and
// counts logical I/O. All heaps sharing a pool compete for its capacity,
// exactly as relations and a version pool would inside one DBMS.
//
// The hit path — by far the common case on the reader side — is lock-free
// and allocation-free: the page index is read without any latch and a hit
// costs two atomic operations (recency stamp, hit counter). It does not
// touch the eviction heap, so a heap key may lag its entry's stamp.
//
// Only misses take the mutex, to serialize insertion and eviction. The
// victim is the entry with the minimum stamp, found lazily: when the
// heap's top is keyed by its entry's current stamp it is that minimum
// (every other key is at most its own entry's stamp, and stamps are
// unique), otherwise the top is re-keyed to its current stamp and sifted
// down. A hit re-keys an item at most once, so an eviction costs amortised
// O(log capacity). Single-threaded this is exactly LRU, so the §6 I/O
// experiments' hit/miss/write-back counts are exact; under concurrency the
// counters are exact and the eviction order is LRU up to the interleaving
// of the racing accesses.
type BufferPool struct {
	capacity int
	clock    atomic.Int64
	index    sync.Map // PageKey → *poolEntry
	hits     atomic.Int64
	misses   atomic.Int64
	wbacks   atomic.Int64
	obsC     atomic.Pointer[poolCounters]

	// mu serializes the miss path (insert + evict) and Reset; it is never
	// taken on a hit. victims is the eviction min-heap, one item per cached
	// entry, so its length is the number of cached pages; it is only
	// touched while mu is held.
	mu      sync.Mutex
	victims []victim
}

// NewBufferPool returns a pool caching up to capacity pages. Capacity must
// be positive.
func NewBufferPool(capacity int) *BufferPool {
	if capacity <= 0 {
		panic("storage: buffer pool capacity must be positive")
	}
	return &BufferPool{capacity: capacity}
}

// Instrument mirrors the pool's counters live into reg under
// prefix+"_hits_total" etc. Several pools instrumented with the same prefix
// share the counters (registry lookups are get-or-create), yielding
// process-wide aggregate I/O; counters record activity from instrumentation
// time onward. On a nil pool it registers nothing.
func (p *BufferPool) Instrument(reg *obs.Registry, prefix string) {
	if p == nil {
		return
	}
	p.obsC.Store(&poolCounters{
		hits:       reg.Counter(prefix+"_hits_total", "buffer-pool hits"),
		misses:     reg.Counter(prefix+"_misses_total", "buffer-pool misses (logical read I/Os)"),
		writeBacks: reg.Counter(prefix+"_writebacks_total", "dirty-page write-backs (logical write I/Os)"),
	})
}

// Touch records an access to the page. A miss counts as a read I/O; evicting
// a dirty page counts as a write I/O. When write is true the cached page is
// marked dirty. A nil pool records nothing, and the check inlines into the
// caller, so a heap without a pool pays one comparison per page.
func (p *BufferPool) Touch(key PageKey, write bool) {
	if p != nil {
		p.touch(key, write)
	}
}

func (p *BufferPool) touch(key PageKey, write bool) {
	if v, ok := p.index.Load(key); ok {
		p.recordHit(v.(*poolEntry), write)
		return
	}
	p.miss(key, write)
}

func (p *BufferPool) recordHit(e *poolEntry, write bool) {
	e.stamp.Store(p.clock.Add(1))
	if write {
		e.dirty.Store(true)
	}
	p.hits.Add(1)
	if c := p.obsC.Load(); c != nil {
		c.hits.Inc()
	}
}

// miss inserts the page under the latch, evicting least-recently-stamped
// pages to make room.
func (p *BufferPool) miss(key PageKey, write bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Another goroutine may have faulted the page in while we waited; its
	// miss was counted, ours is now a hit.
	if v, ok := p.index.Load(key); ok {
		p.recordHit(v.(*poolEntry), write)
		return
	}
	p.misses.Add(1)
	if c := p.obsC.Load(); c != nil {
		c.misses.Inc()
	}
	for len(p.victims) >= p.capacity {
		p.evictOldestLocked()
	}
	e := &poolEntry{key: key}
	st := p.clock.Add(1)
	e.stamp.Store(st)
	e.dirty.Store(write)
	p.index.Store(key, e)
	// st was drawn after every key in the heap, so appending keeps heap
	// order without a sift.
	p.victims = append(p.victims, victim{e: e, stamp: st})
}

// evictOldestLocked removes the entry with the minimum recency stamp —
// exactly the LRU victim. A dirty victim counts one write-back. Callers hold
// mu and guarantee the heap is non-empty.
func (p *BufferPool) evictOldestLocked() {
	for {
		top := &p.victims[0]
		st := top.e.stamp.Load()
		if st == top.stamp {
			break
		}
		top.stamp = st
		p.siftDownLocked(0)
	}
	e := p.victims[0].e
	last := len(p.victims) - 1
	p.victims[0] = p.victims[last]
	p.victims[last] = victim{} // drop the pointer; the backing array is reused
	p.victims = p.victims[:last]
	p.siftDownLocked(0)

	if e.dirty.Load() {
		p.wbacks.Add(1)
		if c := p.obsC.Load(); c != nil {
			c.writeBacks.Inc()
		}
	}
	p.index.Delete(e.key)
}

// siftDownLocked restores heap order below item i after its key grew (or,
// at the root, changed at all). Callers hold mu.
func (p *BufferPool) siftDownLocked(i int) {
	h := p.victims
	for {
		least, l := i, 2*i+1
		if l < len(h) && h[l].stamp < h[least].stamp {
			least = l
		}
		if r := l + 1; r < len(h) && h[r].stamp < h[least].stamp {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Stats returns a snapshot of the pool's counters; a nil pool's are zero.
func (p *BufferPool) Stats() IOStats {
	if p == nil {
		return IOStats{}
	}
	return IOStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		WriteBacks: p.wbacks.Load(),
	}
}

// Reset zeroes the counters and empties the cache, flushing nothing (this is
// an accounting reset, not a checkpoint).
func (p *BufferPool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits.Store(0)
	p.misses.Store(0)
	p.wbacks.Store(0)
	for _, v := range p.victims {
		p.index.Delete(v.e.key)
	}
	clear(p.victims)
	p.victims = p.victims[:0]
}

// Capacity returns the pool's page capacity; a nil pool's is 0.
func (p *BufferPool) Capacity() int {
	if p == nil {
		return 0
	}
	return p.capacity
}
