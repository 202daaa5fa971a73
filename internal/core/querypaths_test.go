package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/sql"
)

// countingSink is an exec.Rows that counts what reached it.
type countingSink struct {
	exec.Rows
	begins, adds int
}

func (c *countingSink) Begin(cols []string)   { c.begins++; c.Rows.Begin(cols) }
func (c *countingSink) Add(row catalog.Tuple) { c.adds++; c.Rows.Add(row) }

// materialized hands a materializing entry point's result to sink: nothing
// when it failed, and then it must have answered no rows. A failure that
// answered rows is reported with the cause formatted, not wrapped, so it
// matches no expected error and fails every check.
func materialized(rows *exec.Rows, err error, sink exec.Sink) error {
	if err != nil && rows != nil {
		return fmt.Errorf("failed query returned %d rows (%v)", rows.Len(), err)
	}
	return exec.Feed(sink, rows, err)
}

// queryPaths are the public entry points onto Session.run: the three that
// materialize their result, and the two that deliver it to the caller's
// sink, as the wire encoder takes it.
var queryPaths = []struct {
	name string
	into bool
	run  func(sess *Session, text string, sink exec.Sink) error
}{
	{"Query", false, func(sess *Session, text string, sink exec.Sink) error {
		rows, err := sess.Query(text, nil)
		return materialized(rows, err, sink)
	}},
	{"QueryStmt", false, func(sess *Session, text string, sink exec.Sink) error {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			return err
		}
		rows, err := sess.QueryStmt(sel, nil)
		return materialized(rows, err, sink)
	}},
	{"QueryPrepared", false, func(sess *Session, text string, sink exec.Sink) error {
		p, err := sess.store.Prepare(text)
		if err != nil {
			return err
		}
		rows, err := sess.QueryPrepared(p, nil)
		return materialized(rows, err, sink)
	}},
	{"QueryStmtInto", true, func(sess *Session, text string, sink exec.Sink) error {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			return err
		}
		return sess.QueryStmtInto(sel, nil, sink)
	}},
	{"QueryPreparedInto", true, func(sess *Session, text string, sink exec.Sink) error {
		p, err := sess.store.Prepare(text)
		if err != nil {
			return err
		}
		return sess.QueryPreparedInto(p, nil, sink)
	}},
}

// runRows is Session.run without params, materialized.
func runRows(sess *Session, e *planEntry) (*exec.Rows, error) {
	return exec.Collect(func(sink exec.Sink) error { return sess.run(e, nil, sink) })
}

// planRows is Store.executePlan, materialized.
func planRows(s *Store, e *planEntry, params exec.Params, vn VN) (*exec.Rows, error) {
	return exec.Collect(func(sink exec.Sink) error { return s.executePlan(e, params, vn, sink) })
}

// touchKey1 commits one maintenance transaction that updates kv's key 1.
func touchKey1(t *testing.T, s *Store, v int64) {
	t.Helper()
	m := mustMaint(t, s)
	if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
		func(catalog.Tuple) catalog.Tuple { return kvTuple(1, v) }); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
}

// abortKey1 begins a maintenance transaction that updates kv's key 1, and
// rolls it back.
func abortKey1(t *testing.T, s *Store) {
	t.Helper()
	m := mustMaint(t, s)
	if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
		func(catalog.Tuple) catalog.Tuple { return kvTuple(1, 99) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// sessionStates arrange a session over prepStore's kv (keys 0..9 at VN 2)
// into each state the expiration discipline distinguishes; want is what a
// runnable statement must then report (nil: the rows as of the pinned VN),
// and after is whether only the check after the execution can report it,
// once the rows have reached the sink.
var sessionStates = []struct {
	name    string
	arrange func(t *testing.T, s *Store, perTuple bool) *Session
	want    error
	after   bool
}{
	// One maintenance commit under the open session: with n = 2 it is
	// still live under both disciplines, and must keep reading its version.
	{"live", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		touchKey1(t, s, 9999)
		return sess
	}, nil, false},
	// Two commits over one key while the query runs: the session is more
	// than n−1 transactions behind (global) and the tuple it read is no
	// longer reconstructible (per-tuple). Only the post-execution check can
	// notice.
	{"version advanced mid-query", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		sess.midQueryHook = func() {
			touchKey1(t, s, 7)
			touchKey1(t, s, 8)
		}
		return sess
	}, ErrSessionExpired, true},
	// A commit, then a transaction that updates the same key and rolls back
	// before the query: the revert consumed the pre-update version the
	// session would read, so the rollback's expiry floor refuses it.
	{"below the logless-rollback floor", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		touchKey1(t, s, 9999)
		abortKey1(t, s)
		return sess
	}, ErrSessionExpired, false},
	// The same abort while the query runs: the query read a tuple the
	// revert then rewrote, so only the post-execution check can notice.
	{"rolled back mid-query", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		touchKey1(t, s, 9999)
		sess.midQueryHook = func() { abortKey1(t, s) }
		return sess
	}, ErrSessionExpired, true},
	{"closed", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		sess.Close()
		return sess
	}, ErrSessionClosed, false},
}

// Every entry point reaches one run, so every (entry point, discipline,
// session state, statement) cell answers alike: a runnable statement gets
// the session's pinned rows or the session's error, and a statement that
// cannot be planned gets the statement's error whatever the session's state
// (the order documented on Session.run). Into a sink, a session refused
// before the execution leaves the sink untouched, and one that expires after
// its rows reached the sink still reports ErrSessionExpired; the
// materializing paths then answer no rows.
func TestQueryPathsMatrix(t *testing.T) {
	const (
		runnable   = `SELECT k, v FROM kv WHERE k < 3 ORDER BY k`
		pinned     = "[(0, 100) (1, 101) (2, 102)]"
		unplanable = `SELECT x FROM no_such_table`
	)
	for _, path := range queryPaths {
		for _, perTuple := range []bool{false, true} {
			for _, state := range sessionStates {
				name := fmt.Sprintf("%s/perTuple=%v/%s", path.name, perTuple, state.name)
				t.Run(name, func(t *testing.T) {
					s, _ := prepStore(t)
					sess := state.arrange(t, s, perTuple)
					defer sess.Close()
					var sink countingSink
					if err := path.run(sess, unplanable, &sink); !errors.Is(err, db.ErrNoSuchTable) || sink.begins+sink.adds > 0 {
						t.Fatalf("unplannable statement: %v and %d begins, want %v and none", err, sink.begins, db.ErrNoSuchTable)
					}
					err := path.run(sess, runnable, &sink)
					if !errors.Is(err, state.want) {
						t.Fatalf("err = %v, want %v", err, state.want)
					}
					if state.want != nil {
						if touched := sink.begins+sink.adds > 0; touched != (path.into && state.after) {
							t.Fatalf("the failed query left %d begins and %d rows in the sink", sink.begins, sink.adds)
						}
						return
					}
					if got := fmt.Sprint(sink.Tuples); got != pinned || sink.begins != 1 {
						t.Fatalf("rows = %s after %d begins, want the session's version %s after one", got, sink.begins, pinned)
					}
					fresh := s.beginSession(perTuple)
					defer fresh.Close()
					var rows countingSink
					if err := path.run(fresh, runnable, &rows); err != nil || !strings.Contains(fmt.Sprint(rows.Tuples), "(1, 9999)") {
						t.Fatalf("fresh session: %v, %v; want the committed update", rows.Tuples, err)
					}
				})
			}
		}
	}
}
