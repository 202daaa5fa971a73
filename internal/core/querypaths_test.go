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

// queryPaths are the three public entry points onto Session.run.
var queryPaths = []struct {
	name string
	run  func(sess *Session, text string) (*exec.Rows, error)
}{
	{"Query", func(sess *Session, text string) (*exec.Rows, error) {
		return sess.Query(text, nil)
	}},
	{"QueryStmt", func(sess *Session, text string) (*exec.Rows, error) {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			return nil, err
		}
		return sess.QueryStmt(sel, nil)
	}},
	{"QueryPrepared", func(sess *Session, text string) (*exec.Rows, error) {
		p, err := sess.store.Prepare(text)
		if err != nil {
			return nil, err
		}
		return sess.QueryPrepared(p, nil)
	}},
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
// runnable statement must then report (nil: the rows as of the pinned VN).
var sessionStates = []struct {
	name    string
	arrange func(t *testing.T, s *Store, perTuple bool) *Session
	want    error
}{
	// One maintenance commit under the open session: with n = 2 it is
	// still live under both disciplines, and must keep reading its version.
	{"live", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		touchKey1(t, s, 9999)
		return sess
	}, nil},
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
	}, ErrSessionExpired},
	// A commit, then a transaction that updates the same key and rolls back
	// before the query: the revert consumed the pre-update version the
	// session would read, so the rollback's expiry floor refuses it.
	{"below the logless-rollback floor", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		touchKey1(t, s, 9999)
		abortKey1(t, s)
		return sess
	}, ErrSessionExpired},
	// The same abort while the query runs: the query read a tuple the
	// revert then rewrote, so only the post-execution check can notice.
	{"rolled back mid-query", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		touchKey1(t, s, 9999)
		sess.midQueryHook = func() { abortKey1(t, s) }
		return sess
	}, ErrSessionExpired},
	{"closed", func(t *testing.T, s *Store, perTuple bool) *Session {
		sess := s.beginSession(perTuple)
		sess.Close()
		return sess
	}, ErrSessionClosed},
}

// Every entry point reaches one run, so every (entry point, discipline,
// session state, statement) cell answers alike: a runnable statement gets
// the session's pinned rows or the session's error, and a statement that
// cannot be planned gets the statement's error whatever the session's state
// (the order documented on Session.run).
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
					if _, err := path.run(sess, unplanable); !errors.Is(err, db.ErrNoSuchTable) {
						t.Fatalf("unplannable statement: %v, want %v", err, db.ErrNoSuchTable)
					}
					rows, err := path.run(sess, runnable)
					if !errors.Is(err, state.want) {
						t.Fatalf("err = %v, want %v", err, state.want)
					}
					if state.want != nil {
						if rows != nil {
							t.Fatalf("failed query returned %d rows", rows.Len())
						}
						return
					}
					if got := fmt.Sprint(rows.Tuples); got != pinned {
						t.Fatalf("rows = %s, want the session's version %s", got, pinned)
					}
					fresh := s.beginSession(perTuple)
					defer fresh.Close()
					rows, err = path.run(fresh, runnable)
					if err != nil || !strings.Contains(fmt.Sprint(rows.Tuples), "(1, 9999)") {
						t.Fatalf("fresh session: %v, %v; want the committed update", rows, err)
					}
				})
			}
		}
	}
}
