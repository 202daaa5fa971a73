package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Session is a reader session (§1): a sequence of queries that must all
// observe the same consistent database state. The session captures
// sessionVN = currentVN when it begins and reads that version — without
// placing any locks — until it is closed or expires.
//
// A Session is safe for concurrent use by multiple goroutines: the mutable
// state (closed, expiredSeen) is atomic, and the steady-state query path
// takes no mutex at all.
type Session struct {
	store    *Store
	vn       VN
	perTuple bool
	// shard is the session-registry stripe this session registered in.
	shard int
	// closed flips once, via CompareAndSwap, so concurrent Close calls
	// and in-flight queries race benignly.
	closed atomic.Bool
	// expiredSeen dedupes the expiry metric and trace event: a session is
	// counted expired once, on the first failing check, however many
	// queries observe the error afterwards.
	expiredSeen atomic.Bool
	// preReadHook and midQueryHook, when non-nil, run after the pre-query
	// expiration check and after the read (test seams: they let tests
	// advance or abort a version around a read deterministically).
	preReadHook, midQueryHook func()
}

// BeginSession starts a reader session at the current database version.
// Expiration uses the global pessimistic check of §4.1.
func (s *Store) BeginSession() *Session {
	return s.beginSession(false)
}

// BeginSessionPerTupleExpiry starts a session using §3.2's first,
// optimistic expiration alternative: instead of the global currentVN
// comparison, each query is followed by a per-table probe for tuples whose
// oldest reconstructible version postdates the session (tupleVN(n−1) >
// sessionVN + 1). A session only expires when such a tuple actually exists
// in a table it queries, so sessions reading cold data outlive the global
// check's bound. (The paper notes true read-set detection "cannot always be
// implemented by query rewrite"; this per-table probe is the rewrite-
// implementable form.)
func (s *Store) BeginSessionPerTupleExpiry() *Session {
	return s.beginSession(true)
}

func (s *Store) beginSession(perTuple bool) *Session {
	sess := &Session{store: s, perTuple: perTuple}
	sess.shard = int(s.sessions.next.Add(1) % sessionShards)
	// Register at a version consistent with the published snapshot: if a
	// publish (commit/rollback) raced between reading the globals and
	// registering, the floor computations (GC, commit-when-quiet) could
	// have missed this session at its stale version — re-read and retry.
	// Publishes are rare (one per maintenance transaction), so the loop
	// settles immediately in steady state. The retries are bounded: under
	// pathological churn (a maintenance loop committing faster than a
	// reader can register, which the stress harness produces on a single
	// CPU) the optimistic loop would otherwise livelock, so after a few
	// failed attempts the session registers under the latch, which
	// excludes publishers entirely.
	const optimisticRetries = 4
	registered := false
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		snap := s.snap.Load()
		vn, _, _ := s.readGlobals()
		sess.vn = vn
		s.sessions.add(sess)
		if s.snap.Load() == snap {
			registered = true
			break
		}
		s.sessions.remove(sess)
	}
	if !registered {
		acquired := s.latchAcquire()
		vn, _ := s.globalsLocked()
		sess.vn = vn
		s.sessions.add(sess)
		s.latchRelease(acquired)
	}
	m := s.metrics
	m.sessionsBegun.Inc()
	m.activeSessions.Add(1)
	m.trace(TraceSessionBegin, sess.vn, 0)
	return sess
}

// BeginSessionAt starts a reader session pinned at vn rather than at the
// store's currentVN. The shard router uses it to pin one published
// cross-shard epoch on every shard: between a two-phase publish's per-shard
// commits and the global epoch flip a shard's currentVN runs one ahead of
// the epoch, and the session must land on the epoch — the shard's nVNL
// back-versions reconstruct it.
//
// The pinned version must be servable: no newer than currentVN, no older
// than the expiry floor, and inside the n-version reconstruction window. If
// a concurrent publish moved the window past vn between the caller loading
// its epoch and registering here, BeginSessionAt registers nothing and
// returns ErrSessionExpired; callers reload their epoch and retry. The
// session registers before the window is validated — the same ordering
// discipline as beginSession's optimistic loop — so the GC and
// commit-when-quiet floors can never miss a session that passed the check.
func (s *Store) BeginSessionAt(vn VN) (*Session, error) {
	sess := &Session{store: s, vn: vn}
	sess.shard = int(s.sessions.next.Add(1) % sessionShards)
	s.sessions.add(sess)
	cur, active, floor := s.readGlobals()
	bad := vn > cur || vn < floor || vn < 1
	if !bad {
		n := VN(s.n)
		if active {
			bad = vn < cur+2-n
		} else {
			bad = vn < cur+1-n
		}
	}
	if bad {
		s.sessions.remove(sess)
		return nil, ErrSessionExpired
	}
	m := s.metrics
	m.sessionsBegun.Inc()
	m.activeSessions.Add(1)
	m.trace(TraceSessionBegin, sess.vn, 0)
	return sess, nil
}

// VN returns the session's database version.
func (sess *Session) VN() VN { return sess.vn }

// Close ends the session, releasing it from the store's registry (the
// garbage collector and the commit-when-quiet policy consult that
// registry). Closing twice — or from several goroutines at once — is a
// no-op after the first call.
func (sess *Session) Close() {
	if !sess.closed.CompareAndSwap(false, true) {
		return
	}
	st := sess.store
	st.sessions.remove(sess)
	st.metrics.sessionsClosed.Inc()
	st.metrics.activeSessions.Add(-1)
	st.metrics.trace(TraceSessionClose, sess.vn, 0)
}

// markExpired records the session's expiry — once, however many queries
// observe the error afterwards — and returns ErrSessionExpired.
func (sess *Session) markExpired() error {
	if sess.expiredSeen.CompareAndSwap(false, true) {
		sess.store.metrics.sessionsExpired.Inc()
		sess.store.metrics.trace(TraceSessionExpired, sess.vn, 0)
	}
	return ErrSessionExpired
}

// Check performs the global, pessimistic expiration test of §3.2/§4.1: the
// session is live iff it could not possibly have overlapped more than n−1
// maintenance transactions. For 2VNL the condition is the paper's
//
//	(sessionVN = currentVN) OR
//	(sessionVN = currentVN−1 AND maintenanceActive = false)
//
// generalized for nVNL. It returns nil, ErrSessionExpired, or
// ErrSessionClosed. The check is lock-free: one atomic snapshot load
// replaces the paper's latched read of the global variables.
func (sess *Session) Check() error {
	if sess.closed.Load() {
		return ErrSessionClosed
	}
	st := sess.store
	cur, active, floor := st.readGlobals()
	if sess.vn < floor {
		// A rollback invalidated older sessions (see
		// Maintenance.Rollback).
		return sess.markExpired()
	}
	if sess.perTuple {
		// Optimistic discipline: expired only if some table actually holds
		// a tuple this session cannot reconstruct. The probe reads each
		// table's oldest-slot high-water mark — O(1) per table.
		for _, vt := range st.Tables() {
			if vt.hasUnreconstructible(sess.vn) {
				return sess.markExpired()
			}
		}
		return nil
	}
	n := VN(st.n)
	if active {
		if sess.vn < cur+2-n {
			return sess.markExpired()
		}
	} else {
		if sess.vn < cur+1-n {
			return sess.markExpired()
		}
	}
	return nil
}

// Expired reports whether the global check fails.
func (sess *Session) Expired() bool { return sess.Check() != nil }

// Query parses text, plans it (Store.selectPlan), and executes it at the
// session's version under the discipline of run. A repeated query text skips
// the parser and expression compilation entirely: the store's plan cache is
// probed with the raw text before anything else, and validity is one
// table-registry pointer comparison.
func (sess *Session) Query(text string, params exec.Params) (*exec.Rows, error) {
	e, err := sess.store.textPlan(text)
	if err != nil {
		return nil, err
	}
	return exec.Collect(func(sink exec.Sink) error { return sess.run(e, params, sink) })
}

// textPlan resolves query text to its plan entry: the raw text probes the
// plan cache before the parser runs.
func (s *Store) textPlan(text string) (*planEntry, error) {
	if e := s.plans.get(text, s.tables.Load()); e != nil {
		s.metrics.planHits.Inc()
		return e, nil
	}
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	return s.selectPlan(sel, text)
}

// QueryStmt is QueryStmtInto, materialized.
func (sess *Session) QueryStmt(sel *sql.SelectStmt, params exec.Params) (*exec.Rows, error) {
	return exec.Collect(func(sink exec.Sink) error { return sess.QueryStmtInto(sel, params, sink) })
}

// QueryStmtInto is Query over a pre-parsed statement, into sink (see run).
// The input is not mutated. On the steady-state path this performs zero
// mutex acquisitions: both checks load the published snapshot, table
// resolution is an atomic registry load, and the plan cache (keyed here by
// the statement's canonical printed form) is a read-locked map probe.
func (sess *Session) QueryStmtInto(sel *sql.SelectStmt, params exec.Params, sink exec.Sink) error {
	e, err := sess.store.selectPlan(sel, "")
	if err != nil {
		return err
	}
	return sess.run(e, params, sink)
}

// run is the one reader path (§3.2, §4.1): expiration check, execute the
// plan at the session's version into sink, expiration check again — so a
// session that silently expired mid-query (a second maintenance transaction
// began) reports ErrSessionExpired rather than an inconsistent result. On
// any error the caller discards what sink holds (untouched if the first
// check refused). Every entry point resolves a plan entry and hands it here.
//
// Error order: the statement is resolved before run is reached, so a
// statement that cannot be planned (syntax error, unknown table) reports
// that error on any session, live, expired or closed; the session's state is
// consulted only for statements that could run.
func (sess *Session) run(e *planEntry, params exec.Params, sink exec.Sink) error {
	if err := sess.checkBefore(); err != nil {
		return err
	}
	if sess.preReadHook != nil {
		sess.preReadHook()
	}
	if err := sess.store.executePlan(e, params, sess.vn, sink); err != nil {
		return err
	}
	if sess.midQueryHook != nil {
		sess.midQueryHook()
	}
	return sess.checkAfter(e.src.From)
}

// checkBefore is the pre-execution half of the expiration discipline. The
// global (pessimistic) discipline runs the full Check. The per-tuple
// (optimistic) one only refuses a closed session or one below the expiry
// floor a rollback raised: whether a tuple the query needs is gone is
// decided after execution, by checkAfter.
func (sess *Session) checkBefore() error {
	if !sess.perTuple {
		return sess.Check()
	}
	return sess.checkFloor()
}

// checkFloor refuses a closed session or one below the expiry floor.
func (sess *Session) checkFloor() error {
	if sess.closed.Load() {
		return ErrSessionClosed
	}
	if _, _, floor := sess.store.readGlobals(); sess.vn < floor {
		return sess.markExpired()
	}
	return nil
}

// checkAfter is the post-execution half: checkBefore again, then, for the
// per-tuple discipline, a probe of each versioned table in the query's FROM
// list — not every table, as Check does — for tuples the session can no
// longer reconstruct. Commits only raise tuple version numbers, so a clean
// probe after the query covers every tuple the execution read. A rollback
// lowers them back to currentVN, which can hide from the probe a tuple the
// query read mid-transaction; the floor test catches that, because Rollback
// raises the floor before it reverts any tuple.
func (sess *Session) checkAfter(from []sql.TableRef) error {
	if err := sess.checkBefore(); err != nil || !sess.perTuple {
		return err
	}
	for _, tr := range from {
		if vt := sess.store.lookup(tr.Table); vt != nil && vt.hasUnreconstructible(sess.vn) {
			return sess.markExpired()
		}
	}
	return nil
}

// executePlan runs a cached plan for a reader at vn into sink
// (exec.Plan.ExecuteInto). It also recovers from the rare stale-plan race:
// the table registry can flip between cache validation and execution (e.g.
// AdoptTable replacing the table mid-flight), which the plan detects by
// schema-pointer comparison before it begins the sink. Recovery feeds sink
// the entry's statement run through the tree-walker at vn, which resolves
// tables at execution time; the stale cache entry dies on its next lookup.
func (s *Store) executePlan(e *planEntry, params exec.Params, vn VN, sink exec.Sink) error {
	err := e.plan.ExecuteInto(queryCatalog{s}, params, int64(vn), sink)
	if !errors.Is(err, exec.ErrPlanStale) {
		return err
	}
	rows, err := exec.SelectAt(queryCatalog{s}, e.src, params, int64(vn))
	return exec.Feed(sink, rows, err)
}

// hasUnreconstructible reports whether any tuple's oldest recorded
// modification postdates what a session at vn can reconstruct:
// tupleVN(n−1) > vn + 1 (unused slots hold 0 and never trigger). The probe
// reads the table's maintained high-water mark — one atomic load — instead
// of scanning; scanUnreconstructible below is the full-scan oracle the
// equivalence tests pin it against.
func (v *VTable) hasUnreconstructible(vn VN) bool {
	return VN(v.oldestHW.Load()) > vn+1
}

// scanUnreconstructible is the original full-scan form of the per-tuple
// expiration probe, kept as the oracle for oldestHW.
func (v *VTable) scanUnreconstructible(vn VN) bool {
	e := v.ext
	oldest := e.L.N - 1
	found := false
	v.tbl.Scan(func(_ storage.RID, t catalog.Tuple) bool {
		if e.TupleVN(t, oldest) > vn+1 {
			found = true
			return false
		}
		return true
	})
	return found
}

// Rewrite returns the SQL text of the rewritten form of a query, as the
// paper presents in Example 4.1 — CASE expressions around updatable
// attributes and the version predicate in WHERE. It does not execute
// anything.
func (sess *Session) Rewrite(text string) (string, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return "", err
	}
	rw, err := RewriteSelect(sess.store, sel)
	if err != nil {
		return "", err
	}
	return sql.Print(rw), nil
}

// Scan iterates the named versioned relation at the session's version,
// calling fn with each visible base-schema tuple. Unlike the SQL path, Scan
// performs the per-tuple expiration detection of §3.2: touching a tuple
// whose oldest reconstructible version postdates the session returns
// ErrSessionExpired immediately. A rollback defeats that detection, so Scan
// then tests the expiry floor (see checkAfter); if that fails, fn may have
// seen tuples it must discard.
func (sess *Session) Scan(table string, fn func(catalog.Tuple) bool) error {
	if err := sess.Check(); err != nil {
		return err
	}
	if sess.preReadHook != nil {
		sess.preReadHook()
	}
	vt, err := sess.store.Table(table)
	if err != nil {
		return err
	}
	var scanErr error
	vt.tbl.Scan(func(_ storage.RID, t catalog.Tuple) bool {
		base, visible, err := vt.ext.ReadAsOf(t, sess.vn)
		if err != nil {
			scanErr = err
			return false
		}
		if !visible {
			return true
		}
		return fn(base)
	})
	if scanErr == ErrSessionExpired {
		return sess.markExpired()
	}
	if scanErr != nil {
		return scanErr
	}
	return sess.checkFloor()
}

// Get returns the tuple with the given unique key as of the session's
// version. visible is false when the tuple does not exist in that version.
// Like Scan, it tests the expiry floor after the read.
func (sess *Session) Get(table string, key catalog.Tuple) (t catalog.Tuple, visible bool, err error) {
	if err := sess.Check(); err != nil {
		return nil, false, err
	}
	if sess.preReadHook != nil {
		sess.preReadHook()
	}
	vt, err := sess.store.Table(table)
	if err != nil {
		return nil, false, err
	}
	rid, ok := vt.tbl.SearchKey(key)
	if !ok {
		return nil, false, nil
	}
	ext, err := vt.tbl.Get(rid)
	if err != nil {
		if errors.Is(err, storage.ErrNoSuchTuple) {
			if _, still := vt.tbl.SearchKey(key); !still {
				// The tuple was physically reclaimed between the index
				// probe and the heap read (GC or a net-effect delete
				// racing this reader): the key is genuinely gone, not
				// corrupt.
				return nil, false, nil
			}
		}
		// Anything else — including an index entry pointing at a missing
		// tuple — is storage corruption or an I/O failure and must not be
		// masked as "tuple not visible".
		return nil, false, fmt.Errorf("core: reading %s key %v: %w", table, key, err)
	}
	t, visible, err = vt.ext.ReadAsOf(ext, sess.vn)
	if err == ErrSessionExpired {
		return nil, false, sess.markExpired()
	}
	if err := sess.checkFloor(); err != nil {
		return nil, false, err
	}
	return t, visible, nil
}

// ParseCreateTable parses a CREATE TABLE statement (with UPDATABLE column
// markers and UNIQUE KEY clause) into its base schema without creating
// anything. The shard router uses it to resolve the schema once before
// fanning the create out to every shard.
func ParseCreateTable(text string) (*catalog.Schema, error) {
	return parseCreate(text)
}

func parseCreate(text string) (*catalog.Schema, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	ct, ok := stmt.(*sql.CreateTableStmt)
	if !ok {
		return nil, fmt.Errorf("core: expected CREATE TABLE, got %T", stmt)
	}
	cols := make([]catalog.Column, len(ct.Columns))
	for i, c := range ct.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type, Length: c.Length, Updatable: c.Updatable}
	}
	return catalog.NewSchema(ct.Name, cols, ct.Key...)
}
