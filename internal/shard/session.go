package shard

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sql"
)

// Session is a cross-shard reader session: one core.Session per shard, all
// pinned at the same published epoch VN, so every query — whichever shards
// answer it — reconstructs one coherent database version.
type Session struct {
	r    *Router
	vn   core.VN
	sess []*core.Session
}

// beginRetries bounds the register/flip retry loop. Each publish is at
// least one per-shard commit (WAL-forced in durable mode), so a reader
// losing the race this many times in a row means something is broken, not
// busy.
const beginRetries = 64

// BeginSession pins the published epoch on every shard. The protocol is
// load-epoch, register everywhere (core.Store.BeginSessionAt), then
// re-load: if the epoch pointer moved mid-registration the sessions are
// discarded and the loop retries, because a concurrent publish may already
// have advanced the shards' GC floors past the stale epoch before every
// shard knew a reader was pinned there. A session returned here is
// therefore anchored at an epoch that was still published after all of its
// per-shard registrations — the cross-shard analogue of the single-store
// optimistic begin loop.
func (r *Router) BeginSession() (*Session, error) {
	for attempt := 0; attempt < beginRetries; attempt++ {
		ep := r.epoch.Load()
		sess := make([]*core.Session, len(r.shards))
		ok := true
		for i, st := range r.shards {
			s, err := st.BeginSessionAt(ep.vn)
			if err != nil {
				for j := 0; j < i; j++ {
					sess[j].Close()
				}
				ok = false
				break
			}
			sess[i] = s
		}
		if ok && r.epoch.Load() == ep {
			r.metrics.sessionsBegun.Inc()
			r.metrics.sessions.Add(1)
			return &Session{r: r, vn: ep.vn, sess: sess}, nil
		}
		if ok {
			for _, s := range sess {
				s.Close()
			}
		}
		r.metrics.beginRetries.Inc()
	}
	return nil, fmt.Errorf("shard: BeginSession lost the epoch race %d times", beginRetries)
}

// VN returns the cross-shard epoch the session is pinned at.
func (s *Session) VN() core.VN { return s.vn }

// Close releases the per-shard sessions.
func (s *Session) Close() {
	for _, cs := range s.sess {
		cs.Close()
	}
	s.r.metrics.sessions.Add(-1)
}

// Check reports the session's expiry state: expired on any shard means
// expired (the shards advance in lockstep, so in practice they agree).
func (s *Session) Check() error {
	for _, cs := range s.sess {
		if err := cs.Check(); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the tuple with the given unique key at the session's epoch,
// served by the one shard the (table, key) hash owns.
func (s *Session) Get(table string, key catalog.Tuple) (catalog.Tuple, bool, error) {
	base, err := s.r.schemaOf(table)
	if err != nil {
		return nil, false, err
	}
	idx, err := core.PartitionDelta(base, core.Delta{Table: table, Op: core.DeltaDelete, Key: key}, 0, len(s.sess))
	if err != nil {
		return nil, false, err
	}
	s.r.metrics.queries.Inc()
	return s.sess[idx].Get(table, key)
}

// Scan iterates the named relation across every shard at the session's
// epoch. Shard order is fixed but rows interleave differently than a
// single store would produce them; Scan callers own any ordering.
func (s *Session) Scan(table string, fn func(catalog.Tuple) bool) error {
	stopped := false
	for _, cs := range s.sess {
		err := cs.Scan(table, func(t catalog.Tuple) bool {
			if !fn(t) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// Query parses text and executes it across the shard set: a query that
// pins its table's full unique key with equality predicates routes to the
// one owning shard; anything else fans out to every shard and merges. See
// QueryStmt for the routable subset.
func (s *Session) Query(text string, params exec.Params) (*exec.Rows, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	return s.QueryStmt(sel, params)
}

// QueryStmt is QueryStmtInto, materialized.
func (s *Session) QueryStmt(sel *sql.SelectStmt, params exec.Params) (*exec.Rows, error) {
	return exec.Collect(func(sink exec.Sink) error { return s.QueryStmtInto(sel, params, sink) })
}

// QueryStmtInto is Query over a pre-parsed statement, into sink: a routed
// statement passes sink to its shard, a fan-out runs every shard into one
// capSink over it. Fan-out is only sound for single-table statements without
// aggregates, DISTINCT, GROUP BY, HAVING, or ORDER BY — a per-shard SUM is
// not the global SUM, a cross-shard join misses pairs split across shards —
// so those are rejected; without ORDER BY any n rows satisfy a LIMIT.
func (s *Session) QueryStmtInto(sel *sql.SelectStmt, params exec.Params, sink exec.Sink) error {
	if err := routable(sel); err != nil {
		return err
	}
	if idx, ok := s.r.routeSelect(sel, params, len(s.sess)); ok {
		s.r.metrics.queries.Inc()
		return s.sess[idx].QueryStmtInto(sel, params, sink)
	}
	s.r.metrics.fanouts.Inc()
	c := &capSink{Sink: sink, limit: sel.Limit}
	for _, cs := range s.sess {
		if err := cs.QueryStmtInto(sel, params, c); err != nil {
			return err
		}
	}
	return nil
}

// capSink forwards the first shard's Begin only, and rows up to the LIMIT.
type capSink struct {
	exec.Sink
	limit  *int64
	begins int
	n      int64
}

func (c *capSink) Begin(columns []string) {
	if c.begins++; c.begins == 1 {
		c.Sink.Begin(columns)
	}
}

func (c *capSink) Add(row catalog.Tuple) {
	if c.limit == nil || c.n < *c.limit {
		c.n++
		c.Sink.Add(row)
	}
}

// Routable reports whether a statement can be answered coherently by a
// shard set — the exported form front ends use to refuse unsupported
// statements at prepare time.
func Routable(sel *sql.SelectStmt) error { return routable(sel) }

// routable rejects statements whose per-shard answers do not compose into
// the global answer by concatenation.
func routable(sel *sql.SelectStmt) error {
	switch {
	case len(sel.From) != 1:
		return fmt.Errorf("shard: cross-shard joins are not supported (query touches %d tables)", len(sel.From))
	case sel.Distinct:
		return fmt.Errorf("shard: DISTINCT does not distribute over shards")
	case len(sel.GroupBy) > 0 || sel.Having != nil:
		return fmt.Errorf("shard: GROUP BY/HAVING do not distribute over shards")
	case len(sel.OrderBy) > 0:
		return fmt.Errorf("shard: ORDER BY does not distribute over shards")
	}
	for _, item := range sel.Items {
		if hasAggregate(item.Expr) {
			return fmt.Errorf("shard: aggregates do not distribute over shards")
		}
	}
	return nil
}

func hasAggregate(e sql.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *sql.ColumnRef, *sql.Literal, *sql.Param:
		return false
	case *sql.BinaryExpr:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *sql.UnaryExpr:
		return hasAggregate(x.X)
	case *sql.FuncCall:
		if exec.IsAggregate(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
		return false
	case *sql.CaseExpr:
		for _, w := range x.Whens {
			if hasAggregate(w.Cond) || hasAggregate(w.Result) {
				return true
			}
		}
		return hasAggregate(x.Else)
	case *sql.IsNullExpr:
		return hasAggregate(x.X)
	case *sql.InExpr:
		if hasAggregate(x.X) {
			return true
		}
		for _, l := range x.List {
			if hasAggregate(l) {
				return true
			}
		}
		return false
	case *sql.BetweenExpr:
		return hasAggregate(x.X) || hasAggregate(x.Lo) || hasAggregate(x.Hi)
	default:
		// Unknown node: assume the worst so routing stays conservative.
		return true
	}
}

// routeSelect finds the single-shard fast path: a WHERE conjunction that
// pins every key column of the (single) table with an equality against a
// literal or bound parameter hashes to exactly one shard.
func (r *Router) routeSelect(sel *sql.SelectStmt, params exec.Params, parts int) (int, bool) {
	tr := sel.From[0]
	base, err := r.schemaOf(tr.Table)
	if err != nil || !base.HasKey() {
		return 0, false
	}
	eqs := map[string]catalog.Value{}
	if !collectKeyEqs(sel.Where, tr, params, eqs) {
		return 0, false
	}
	key := make(catalog.Tuple, len(base.Key))
	for i, ci := range base.Key {
		v, ok := eqs[strings.ToLower(base.Columns[ci].Name)]
		if !ok {
			return 0, false
		}
		key[i] = v
	}
	idx, err := core.PartitionDelta(base, core.Delta{Table: base.Name, Op: core.DeltaDelete, Key: key}, 0, parts)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// collectKeyEqs walks an AND-conjunction collecting column = constant
// bindings. It returns false when the tree contains anything else at the
// conjunction level (an OR, a non-equality) that could widen the match set
// beyond the collected keys — in which case the caller falls back to the
// fan-out path, which is always correct.
func collectKeyEqs(e sql.Expr, tr sql.TableRef, params exec.Params, out map[string]catalog.Value) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *sql.BinaryExpr:
		switch x.Op {
		case sql.OpAnd:
			return collectKeyEqs(x.L, tr, params, out) && collectKeyEqs(x.R, tr, params, out)
		case sql.OpEq:
			col, v, ok := eqOperands(x.L, x.R, tr, params)
			if !ok {
				col, v, ok = eqOperands(x.R, x.L, tr, params)
			}
			if ok {
				out[col] = v
				return true
			}
		default:
			// Any other operator at the conjunction level could widen the
			// match set beyond the collected keys: fan out.
			return false
		}
	}
	return false
}

// eqOperands matches (column, constant) where the column belongs to tr and
// the constant is a literal or a bound parameter.
func eqOperands(l, r sql.Expr, tr sql.TableRef, params exec.Params) (string, catalog.Value, bool) {
	col, ok := l.(*sql.ColumnRef)
	if !ok {
		return "", catalog.Null, false
	}
	if col.Table != "" && !strings.EqualFold(col.Table, tr.Binding()) {
		return "", catalog.Null, false
	}
	switch v := r.(type) {
	case *sql.Literal:
		return strings.ToLower(col.Name), v.Value, true
	case *sql.Param:
		if bound, ok := params[v.Name]; ok {
			return strings.ToLower(col.Name), bound, true
		}
	}
	return "", catalog.Null, false
}
