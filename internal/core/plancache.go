package core

import (
	"sync"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sql"
)

// planCacheEntries bounds the plan cache (keys, counting both raw-text and
// canonical ones). The cache is per store and keyed by query text, so the
// bound caps memory for workloads that generate unbounded distinct SQL (e.g.
// literals inlined instead of parameters).
const planCacheEntries = 256

// planEntry is one cached, immutable query plan: the §4.1 rewrite compiled
// by exec.CompileSelect, valid for exactly the table registry it was derived
// against. src is the original (pre-rewrite) statement, retained so the rare
// stale-plan race — the registry flipped between cache validation and
// execution — can recover by re-deriving instead of failing the query.
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
// The rewrite binds :sessionVN as a parameter at execution time, so a plan
// depends on the registered relations and their schemas and never on the
// session. A cached plan is therefore usable iff the store's copy-on-write
// table registry is the identical pointer the plan was derived against.
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
	rw, err := RewriteSelect(s, src)
	if err != nil {
		return nil, err
	}
	pl, err := exec.CompileSelect(queryCatalog{s}, rw, s.fastOptions(src))
	if err != nil {
		return nil, err
	}
	e := &planEntry{reg: reg, src: src, plan: pl}
	s.plans.put(canon, e)
	s.plans.put(raw, e)
	return e, nil
}

// fastOptions builds the per-batch version-reconstruction fast path (Table 1
// / §5) for a single-table SELECT over a versioned relation, or nil when the
// shape does not qualify.
//
// The fast variant is valid by the newest-first slot ordering: tupleVN1 is
// the maximum of a tuple's slot VNs, so for a session with
// sessionVN >= tupleVN1 every per-attribute CASE of the rewrite takes its
// first arm — the bare current-value column — and every visibility arm other
// than the first has a false :s < tupleVNj conjunct. The whole rewrite
// therefore collapses to the original statement plus the case-1 visibility
// residue `operation1 <> 'delete'`, reading base columns directly. The
// classifier is exactly that guard, one integer comparison per tuple, which
// the batch executor hoists to one decision per batch.
func (s *Store) fastOptions(sel *sql.SelectStmt) *exec.CompileOptions {
	if len(sel.From) != 1 {
		return nil
	}
	vt := s.lookup(sel.From[0].Table)
	if vt == nil {
		return nil
	}
	e := vt.ext
	fast := sql.CloneSelect(sel)
	var items []sql.SelectItem
	for _, it := range fast.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		// Expand * over the base schema, matching the rewrite's own star
		// expansion column for column (the extended schema's bookkeeping
		// columns must not leak here either).
		for _, c := range e.Base.Columns {
			items = append(items, sql.SelectItem{Expr: &sql.ColumnRef{Name: c.Name}, Alias: c.Name})
		}
	}
	fast.Items = items
	_, op1 := slotColNames(e.L.N, 1)
	guard := &sql.BinaryExpr{
		Op: sql.OpNe,
		L:  &sql.ColumnRef{Name: op1},
		R:  &sql.Literal{Value: catalog.NewString(string(OpDelete))},
	}
	if fast.Where == nil {
		fast.Where = guard
	} else {
		fast.Where = &sql.BinaryExpr{Op: sql.OpAnd, L: fast.Where, R: guard}
	}
	tvnIdx := e.L.TVN[0]
	classify := func(row catalog.Tuple, v catalog.Value) bool {
		tv := row[tvnIdx]
		if tv.IsNull() || v.IsNull() {
			// A null slot VN (never written by maintenance) falls back to
			// the full rewritten form rather than guessing.
			return false
		}
		return v.Int() >= tv.Int()
	}
	return &exec.CompileOptions{Fast: fast, Classify: classify, ClassifyParam: sessionParam}
}
