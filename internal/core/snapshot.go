package core

import (
	"sync"
	"sync/atomic"
)

// globalSnapshot is an immutable copy of the latched global variables
// (currentVN, maintenanceActive, expireFloor), published behind an atomic
// pointer so the reader hot path — Session.Check and the per-query
// expiration tests — never takes the §3 latch. The latch remains the single
// point of serialization for writers: every snapshot is allocated and
// stored by publishLocked while mu is held, so two publishers can never
// race, and a loaded snapshot is internally consistent because it is never
// mutated after publication.
//
// This is the read-path structure of Larson et al. ("High-Performance
// Concurrency Control Mechanisms for Main-Memory Databases"): global
// version state is read with a single atomic load, and readers scale with
// cores instead of serializing on the writer's latch.
type globalSnapshot struct {
	currentVN   VN
	maintActive bool
	expireFloor VN
}

// publishLocked swaps in a fresh snapshot of the guarded global variables.
// Callers hold mu (the §3 latch); readers observe the swap with an atomic
// load and never block.
func (s *Store) publishLocked() {
	s.snap.Store(&globalSnapshot{
		currentVN:   s.currentVN,
		maintActive: s.maintActive,
		expireFloor: s.expireFloor,
	})
}

// readGlobals returns (currentVN, maintenanceActive, expireFloor) from the
// published snapshot, without taking the latch.
func (s *Store) readGlobals() (VN, bool, VN) {
	snap := s.snap.Load()
	return snap.currentVN, snap.maintActive, snap.expireFloor
}

// tableRegistry is the copy-on-write map of versioned relations, keyed by
// lower-cased base name. Mutators copy the map under mu and publish the
// copy; lookup is a single atomic load.
type tableRegistry map[string]*VTable

// sessionShards stripes the session registry so concurrent BeginSession and
// Close calls rarely contend with each other (and never with Check, which
// takes no lock at all).
const sessionShards = 16

// sessionShard is one stripe of the registry. Its mutex is a private
// fine-grained lock, not the §3 latch: it guards only the shard's set and
// is never held across any other operation.
type sessionShard struct {
	mu  sync.Mutex
	set map[*Session]struct{}
}

// sessionRegistry tracks live reader sessions. The garbage collector and
// the commit-when-quiet policy read it for the minimum sessionVN; the
// gauge-facing count is a plain atomic.
type sessionRegistry struct {
	shards [sessionShards]sessionShard
	next   atomic.Uint64
	live   atomic.Int64
}

func (r *sessionRegistry) add(sess *Session) {
	sh := &r.shards[sess.shard]
	sh.mu.Lock()
	if sh.set == nil {
		sh.set = make(map[*Session]struct{})
	}
	sh.set[sess] = struct{}{}
	sh.mu.Unlock()
	r.live.Add(1)
}

func (r *sessionRegistry) remove(sess *Session) {
	sh := &r.shards[sess.shard]
	sh.mu.Lock()
	_, present := sh.set[sess]
	delete(sh.set, sess)
	sh.mu.Unlock()
	if present {
		r.live.Add(-1)
	}
}

// floor returns the smallest sessionVN among live sessions and whether any
// session is live.
func (r *sessionRegistry) floor() (VN, bool) {
	var minVN VN
	any := false
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for sess := range sh.set {
			if !any || sess.vn < minVN {
				minVN = sess.vn
				any = true
			}
		}
		sh.mu.Unlock()
	}
	return minVN, any
}

func (r *sessionRegistry) count() int { return int(r.live.Load()) }
