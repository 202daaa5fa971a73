// Package latchsafety holds known-bad and known-good latch disciplines for
// the latchsafety analyzer.
package latchsafety

import (
	"sync"
	"time"

	"wal"
)

// Journal mirrors core.Journal: its methods append to the log, so calling
// one under the latch is a blocking operation.
type Journal interface {
	LogBegin(vn int64)
	LogCommit(vn int64) error
}

// Store mirrors the core.Store latch surface: a mu field plus the
// instrumented latchAcquire/latchRelease wrappers make it a latch owner.
type Store struct {
	mu        sync.Mutex
	currentVN int64
	journal   Journal
	log       *wal.Log
	ch        chan int
}

func (s *Store) latchAcquire() time.Time {
	s.mu.Lock()
	return time.Now()
}

func (s *Store) latchRelease(acquired time.Time) {
	s.mu.Unlock()
}

// goodPaired releases on the straight-line path: no finding.
func (s *Store) goodPaired() int64 {
	acquired := s.latchAcquire()
	vn := s.currentVN
	s.latchRelease(acquired)
	return vn
}

// goodEarlyReturn releases on both paths: no finding.
func (s *Store) goodEarlyReturn(active bool) int64 {
	acquired := s.latchAcquire()
	if active {
		s.latchRelease(acquired)
		return 0
	}
	vn := s.currentVN
	s.latchRelease(acquired)
	return vn
}

// goodDeferredDirect uses the raw mutex with defer: no finding.
func (s *Store) goodDeferredDirect() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.currentVN
}

// badMissingReleaseOnReturn leaks the latch on the early return.
func (s *Store) badMissingReleaseOnReturn(active bool) int64 {
	acquired := s.latchAcquire()
	if active {
		return 0 // want "exits with the global-variable latch held"
	}
	s.latchRelease(acquired)
	return s.currentVN
}

// badMissingReleaseAtEnd never releases at all.
func (s *Store) badMissingReleaseAtEnd() {
	s.latchAcquire()
	s.currentVN++
} // want "exits with the global-variable latch held"

// badSleepUnderLatch blocks while holding the latch.
func (s *Store) badSleepUnderLatch() {
	acquired := s.latchAcquire()
	time.Sleep(time.Millisecond) // want "call to time.Sleep while the global-variable latch is held"
	s.latchRelease(acquired)
}

// badJournalUnderLatch appends to the journal while holding the latch.
func (s *Store) badJournalUnderLatch() {
	acquired := s.latchAcquire()
	s.journal.LogBegin(s.currentVN) // want "journal call Journal.LogBegin while the global-variable latch is held"
	s.latchRelease(acquired)
}

// badWALUnderLatch calls into the wal package while holding the latch.
func (s *Store) badWALUnderLatch() {
	acquired := s.latchAcquire()
	s.log.Append(nil) // want "WAL call wal.Append while the global-variable latch is held"
	s.latchRelease(acquired)
}

// badChannelUnderLatch performs a channel send while holding the latch.
func (s *Store) badChannelUnderLatch() {
	s.mu.Lock()
	s.ch <- 1 // want "channel operation while the global-variable latch is held"
	s.mu.Unlock()
}

// badNestedAcquire re-locks the non-reentrant latch.
func (s *Store) badNestedAcquire() {
	acquired := s.latchAcquire()
	acquired2 := s.latchAcquire() // want "latch acquired while already held"
	s.latchRelease(acquired2)
	s.latchRelease(acquired)
}

// badLoopLeak acquires every iteration without releasing. (After the loop
// the state is only "maybe held", so the loop diagnostic is the one that
// fires — joins never produce false exit reports.)
func (s *Store) badLoopLeak(n int) {
	for i := 0; i < n; i++ { // want "loop iteration ends with the global-variable latch still held"
		s.latchAcquire()
		s.currentVN++
	}
}

// goodBlockingOutsideLatch sleeps after releasing: no finding.
func (s *Store) goodBlockingOutsideLatch() {
	acquired := s.latchAcquire()
	vn := s.currentVN
	s.latchRelease(acquired)
	time.Sleep(time.Duration(vn))
}

// --- worker-pool helpers (parallel batch apply) -------------------------

// badPoolJoinUnderLatch joins a worker pool while holding the latch: every
// worker that needs the latch would deadlock against the join.
func (s *Store) badPoolJoinUnderLatch(parts [][]int) {
	var wg sync.WaitGroup
	acquired := s.latchAcquire()
	for range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait() // want "call to sync Wait while the global-variable latch is held"
	s.latchRelease(acquired)
}

// badCondWaitUnderLatch parks on a condition variable while holding the
// latch: every writer stalls until some other goroutine signals, and that
// goroutine may itself need the latch.
func (s *Store) badCondWaitUnderLatch(c *sync.Cond) {
	s.mu.Lock()
	c.Wait() // want "call to sync Wait while the global-variable latch is held"
	s.mu.Unlock()
}

// badRangeChannelUnderLatch drains a worker result channel under the latch:
// a receive blocks until workers produce, and workers may need the latch.
func (s *Store) badRangeChannelUnderLatch(results chan int) {
	acquired := s.latchAcquire()
	for r := range results { // want "channel operation while the global-variable latch is held"
		s.currentVN += int64(r)
	}
	s.latchRelease(acquired)
}

// goodPoolJoinOutsideLatch is the sanctioned shape: capture what the
// workers need under the latch, release, run and join the pool, then
// reacquire to install results.
func (s *Store) goodPoolJoinOutsideLatch(parts [][]int) {
	acquired := s.latchAcquire()
	vn := s.currentVN
	s.latchRelease(acquired)
	var wg sync.WaitGroup
	for range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = vn
		}()
	}
	wg.Wait()
	acquired = s.latchAcquire()
	s.currentVN = vn + 1
	s.latchRelease(acquired)
}
