package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/shard"
	"repro/internal/sql"
)

// Backend abstracts what the wire front end fronts: a single core.Store or
// the hash-sharded router. The protocol handlers speak only this interface,
// so every wire feature — sessions, queries, prepared statements, batches —
// behaves identically whichever engine answers; the reader guarantees come
// from the engine underneath, not from the server.
type Backend interface {
	// CurrentVN is the published version new sessions pin: the store's
	// currentVN, or the router's cross-shard epoch.
	CurrentVN() core.VN
	// N is the engine's version count (2 = 2VNL).
	N() int
	// Shards is the partition width — 1 for a single store. Reported in
	// Welcome so clients and operators can see the topology.
	Shards() int
	// BeginSession pins a reader session at the published version.
	BeginSession() (BackendSession, error)
	// Prepare parses and caches one SELECT, returning the statement whose
	// SQL() is the canonical cache key.
	Prepare(text string) (BackendStmt, error)
	// ApplyBatch runs one maintenance transaction: apply, commit, publish.
	// The caller serializes (server.maintMu); the new version is returned.
	ApplyBatch(deltas []core.Delta) (core.VN, core.BatchStats, error)
}

// BackendSession is one pinned reader session over the wire. The params a
// query receives are valid only for the call: the connection decodes its
// next request's parameters into the same map, so an implementation must
// not keep it, or anything it holds, past its return.
type BackendSession interface {
	VN() core.VN
	Close()
	Query(text string, params exec.Params) (*exec.Rows, error)
	// QueryPrepared executes a statement obtained from the same backend's
	// Prepare; passing another backend's statement is a programming error.
	// Like Query's, params are valid only for the call.
	QueryPrepared(stmt BackendStmt, params exec.Params) (*exec.Rows, error)
}

// intoSession runs a prepared statement straight into the connection's
// encoder; other sessions go through QueryPrepared and exec.Feed. It is not in
// BackendSession, so a type embedding one to override QueryPrepared is obeyed.
type intoSession interface {
	QueryPreparedInto(stmt BackendStmt, params exec.Params, sink exec.Sink) error
}

// BackendStmt is a prepared statement; SQL is its canonical printed form.
type BackendStmt interface {
	SQL() string
}

// ---- single-store backend ----

// coreBackend fronts one core.Store.
type coreBackend struct{ st *core.Store }

// NewCoreBackend adapts a core.Store to the Backend seam. A Config with a
// Store and no Backend gets one implicitly.
func NewCoreBackend(st *core.Store) Backend { return coreBackend{st: st} }

func (b coreBackend) CurrentVN() core.VN { return b.st.CurrentVN() }
func (b coreBackend) N() int             { return b.st.N() }
func (b coreBackend) Shards() int        { return 1 }

func (b coreBackend) BeginSession() (BackendSession, error) {
	return coreSession{s: b.st.BeginSession()}, nil
}

func (b coreBackend) Prepare(text string) (BackendStmt, error) {
	return b.st.Prepare(text)
}

func (b coreBackend) ApplyBatch(deltas []core.Delta) (core.VN, core.BatchStats, error) {
	m, err := b.st.BeginMaintenance()
	if err != nil {
		return 0, core.BatchStats{}, err
	}
	stats, err := m.ApplyBatch(deltas)
	if err != nil {
		if rbErr := m.Rollback(); rbErr != nil {
			return 0, stats, fmt.Errorf("batch failed (%v) and rollback failed: %w", err, rbErr)
		}
		return 0, stats, fmt.Errorf("batch rolled back: %w", err)
	}
	if err := m.Commit(); err != nil {
		if rbErr := m.Rollback(); rbErr != nil {
			return 0, stats, fmt.Errorf("commit failed (%v) and rollback failed: %w", err, rbErr)
		}
		return 0, stats, fmt.Errorf("commit failed, batch rolled back: %w", err)
	}
	return b.st.CurrentVN(), stats, nil
}

type coreSession struct{ s *core.Session }

func (cs coreSession) VN() core.VN { return cs.s.VN() }
func (cs coreSession) Close()      { cs.s.Close() }
func (cs coreSession) Query(text string, params exec.Params) (*exec.Rows, error) {
	return cs.s.Query(text, params)
}
func (cs coreSession) QueryPrepared(stmt BackendStmt, params exec.Params) (*exec.Rows, error) {
	return exec.Collect(func(sink exec.Sink) error { return cs.QueryPreparedInto(stmt, params, sink) })
}
func (cs coreSession) QueryPreparedInto(stmt BackendStmt, params exec.Params, sink exec.Sink) error {
	p, ok := stmt.(*core.Prepared)
	if !ok {
		return fmt.Errorf("server: statement %T is not a single-store statement", stmt)
	}
	return cs.s.QueryPreparedInto(p, params, sink)
}

// ---- sharded backend ----

// shardBackend fronts a shard.Router: sessions pin the cross-shard epoch,
// queries route by key hash or fan out, and ApplyBatch is the router's
// two-phase publish.
type shardBackend struct{ r *shard.Router }

// NewShardBackend adapts a shard.Router to the Backend seam.
func NewShardBackend(r *shard.Router) Backend { return shardBackend{r: r} }

func (b shardBackend) CurrentVN() core.VN { return b.r.EpochVN() }
func (b shardBackend) N() int             { return b.r.N() }
func (b shardBackend) Shards() int        { return b.r.Shards() }

func (b shardBackend) BeginSession() (BackendSession, error) {
	s, err := b.r.BeginSession()
	if err != nil {
		return nil, err
	}
	return shardSession{s: s}, nil
}

// Prepare parses and routability-checks the statement up front, so a query
// the shard set cannot answer coherently (aggregates, joins, ORDER BY) is
// refused at prepare time, not at first execution.
func (b shardBackend) Prepare(text string) (BackendStmt, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	if err := shard.Routable(sel); err != nil {
		return nil, err
	}
	return &shardStmt{sel: sel, text: sql.Print(sel)}, nil
}

func (b shardBackend) ApplyBatch(deltas []core.Delta) (core.VN, core.BatchStats, error) {
	return b.r.ApplyBatch(deltas)
}

type shardStmt struct {
	sel  *sql.SelectStmt
	text string
}

func (p *shardStmt) SQL() string { return p.text }

type shardSession struct{ s *shard.Session }

func (ss shardSession) VN() core.VN { return ss.s.VN() }
func (ss shardSession) Close()      { ss.s.Close() }
func (ss shardSession) Query(text string, params exec.Params) (*exec.Rows, error) {
	return ss.s.Query(text, params)
}
func (ss shardSession) QueryPrepared(stmt BackendStmt, params exec.Params) (*exec.Rows, error) {
	return exec.Collect(func(sink exec.Sink) error { return ss.QueryPreparedInto(stmt, params, sink) })
}
func (ss shardSession) QueryPreparedInto(stmt BackendStmt, params exec.Params, sink exec.Sink) error {
	p, ok := stmt.(*shardStmt)
	if !ok {
		return fmt.Errorf("server: statement %T is not a sharded statement", stmt)
	}
	return ss.s.QueryStmtInto(p.sel, params, sink)
}
