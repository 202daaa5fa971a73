package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/sql"
)

// Prepared is a SELECT parsed once plus a handle on its entry in the store's
// plan cache (plancache.go). While the table registry is the one the entry
// was derived against, executing it costs one atomic load, one pointer
// compare and one counter; when CreateTable or AdoptTable has published a
// fresh registry, the handle asks the cache again — so a statement prepared
// over the wire and the same statement issued ad hoc compile once and
// invalidate through one code path. The handle keeps its entry reachable
// even after the cache's bound evicted it from the map. A Prepared is safe
// for concurrent use by any number of sessions.
type Prepared struct {
	store *Store
	src   *sql.SelectStmt
	entry atomic.Pointer[planEntry]
}

// Prepare parses a SELECT and returns its prepared form. A statement over a
// table that does not exist parses (it could name a relation created later)
// and fails at execution instead.
func (s *Store) Prepare(text string) (*Prepared, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	return &Prepared{store: s, src: sel}, nil
}

// SQL returns the canonical printed form of the prepared statement — the
// normalization key callers use to deduplicate preparations.
func (p *Prepared) SQL() string { return sql.Print(p.src) }

// plan resolves the handle. Concurrent misses may both ask the cache; each
// gets an entry valid for the registry it loaded and the last store wins.
func (p *Prepared) plan() (*planEntry, error) {
	st := p.store
	if e := p.entry.Load(); e != nil && e.reg == st.tables.Load() {
		st.metrics.planHits.Inc()
		return e, nil
	}
	e, err := st.selectPlan(p.src, "")
	if err != nil {
		return nil, err
	}
	p.entry.Store(e)
	return e, nil
}

// QueryPrepared is QueryPreparedInto, materialized.
func (sess *Session) QueryPrepared(p *Prepared, params exec.Params) (*exec.Rows, error) {
	return exec.Collect(func(sink exec.Sink) error { return sess.QueryPreparedInto(p, params, sink) })
}

// QueryPreparedInto executes a prepared SELECT at the session's version into
// sink, under the discipline of Session.run. On a hit the steady-state path
// performs no parsing, no rewrite, and no mutex acquisition.
func (sess *Session) QueryPreparedInto(p *Prepared, params exec.Params, sink exec.Sink) error {
	if p.store != sess.store {
		return fmt.Errorf("core: prepared statement belongs to a different store")
	}
	e, err := p.plan()
	if err != nil {
		return err
	}
	return sess.run(e, params, sink)
}
