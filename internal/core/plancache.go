package core

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/sql"
)

// planCacheEntries bounds the plan cache (keys, counting both raw-text and
// canonical ones). The cache is per store and keyed by query text, so the
// bound caps memory for workloads that generate unbounded distinct SQL (e.g.
// literals inlined instead of parameters).
const planCacheEntries = 256

// planEntry is one cached, immutable query plan (see selectPlan), valid for
// exactly the table registry it was derived against. src is the statement
// as the reader wrote it, retained so the rare stale-plan race — the
// registry flipped between cache validation and execution — can recover by
// running it through the tree-walker instead of failing the query.
type planEntry struct {
	reg  *tableRegistry
	src  *sql.SelectStmt
	plan *exec.Plan
}

// planCache is the store's one statement cache: every SELECT — Session.Query,
// Session.QueryStmt, Session.QueryPrepared and the server paths that funnel
// into them — runs a planEntry resolved here. Entries are keyed twice: by the
// raw query text, so a repeated Query(text) skips the parser entirely, and by
// the canonical printed form (sql.Print), so textual variants of one
// statement, QueryStmt callers and Prepared handles share a single compiled
// plan.
//
// Every plan takes the reader's version at execution time, as an argument
// (exec.Plan.ExecuteInto), so a plan depends on the registered relations and
// their schemas and never on the session. A cached plan is
// therefore usable iff the store's copy-on-write table registry is the
// identical pointer the plan was derived against.
// CreateTable and AdoptTable publish a fresh registry, invalidating every
// entry and every Prepared handle with no shootdown protocol — stale entries
// are simply missed and overwritten on the next derivation.
type planCache struct {
	mu sync.RWMutex
	m  map[string]*planEntry
}

// get returns the entry under key when it is valid for reg, else nil.
func (c *planCache) get(key string, reg *tableRegistry) *planEntry {
	c.mu.RLock()
	e := c.m[key]
	c.mu.RUnlock()
	if e != nil && e.reg == reg {
		return e
	}
	return nil
}

// put installs e under key (no-op for the empty key, which callers pass when
// they hold no raw text), evicting an arbitrary entry to stay within the size
// bound. Map-order eviction is deliberate: the cache is a steady-state
// accelerator, and any entry evicted by mistake is one miss away from being
// rebuilt.
func (c *planCache) put(key string, e *planEntry) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, present := c.m[key]; !present && len(c.m) >= planCacheEntries {
		for victim := range c.m {
			delete(c.m, victim)
			break
		}
	}
	c.m[key] = e
}

// selectPlan returns the cached plan for sel, deriving, compiling, and
// caching a fresh one on miss. raw, when non-empty, is the original query
// text and becomes a second cache key so the next Query(raw) skips the
// parser.
//
// Every statement compiles as written, over the base schema: each versioned
// relation declares its slot selector through queryCatalog (stored), and
// the plan reads each stored tuple at the reader's version through it
// (ExtTable.Slot). A shape the compiled plans do not cover — a join, ORDER
// BY, DISTINCT, a non-grouped column — is a fallback plan, whose tree-walker
// reads the relation through the same selector.
//
// The registry is loaded once, before derivation: a registry flip racing the
// derivation tags the new plan with the older pointer, which only means the
// next lookup misses and rebuilds — both plans are correct for the registry
// they loaded.
func (s *Store) selectPlan(sel *sql.SelectStmt, raw string) (*planEntry, error) {
	reg := s.tables.Load()
	canon := sql.Print(sel)
	if e := s.plans.get(canon, reg); e != nil {
		s.metrics.planHits.Inc()
		s.plans.put(raw, e)
		return e, nil
	}
	s.metrics.planMisses.Inc()
	src := sql.CloneSelect(sel)
	pl, err := exec.CompileSelect(queryCatalog{s}, src, nil)
	if err != nil {
		return nil, err
	}
	e := &planEntry{reg: reg, src: src, plan: pl}
	s.plans.put(canon, e)
	s.plans.put(raw, e)
	return e, nil
}
