package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// checkPoolInvariants checks, at quiescence, that the index and the eviction
// heap describe the same cached entries: one heap item per cached entry, no
// more entries than the capacity, and the heap in key order.
func checkPoolInvariants(t *testing.T, p *BufferPool) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	inHeap := map[*poolEntry]int{}
	for i, v := range p.victims {
		inHeap[v.e]++
		if parent := (i - 1) / 2; i > 0 && p.victims[parent].stamp > v.stamp {
			t.Errorf("heap order: item %d keyed %d above item %d keyed %d", parent, p.victims[parent].stamp, i, v.stamp)
		}
	}
	cached := 0
	p.index.Range(func(k, v any) bool {
		cached++
		e := v.(*poolEntry)
		if e.key != k.(PageKey) {
			t.Errorf("index maps %v to the entry of %v", k, e.key)
		}
		if n := inHeap[e]; n != 1 {
			t.Errorf("cached page %v has %d heap items, want 1", e.key, n)
		}
		return true
	})
	if cached != len(p.victims) || len(inHeap) != len(p.victims) {
		t.Errorf("%d cached entries, %d heap items over %d distinct entries", cached, len(p.victims), len(inHeap))
	}
	if len(p.victims) > p.capacity {
		t.Errorf("%d cached pages exceed capacity %d", len(p.victims), p.capacity)
	}
}

// TestStressBufferPool: four goroutines touch and dirty pages drawn from
// four times the capacity, so lock-free hits race the evictions of the miss
// path. At quiescence the index and heap agree, every touch was counted once,
// as a hit or a miss, and no more pages were written back than were dirtied.
func TestStressBufferPool(t *testing.T) {
	const capacity, workers, perWorker = 64, 4, 5000
	p := NewBufferPool(capacity)
	var dirtied atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				write := rng.Intn(4) == 0
				if write {
					dirtied.Add(1)
				}
				p.Touch(PageKey{File: 0, Page: rng.Intn(4 * capacity)}, write)
			}
		}(rand.New(rand.NewSource(int64(w + 1))))
	}
	wg.Wait()

	checkPoolInvariants(t, p)
	s := p.Stats()
	if s.Hits+s.Misses != workers*perWorker {
		t.Errorf("hits %d + misses %d != %d touches", s.Hits, s.Misses, workers*perWorker)
	}
	if s.WriteBacks == 0 || s.WriteBacks > dirtied.Load() {
		t.Errorf("%d write-backs counted for %d dirtying touches", s.WriteBacks, dirtied.Load())
	}
	if s.Misses < capacity {
		t.Errorf("only %d misses: the run never filled the pool", s.Misses)
	}
}
