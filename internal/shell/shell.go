// Package shell implements the interactive warehouse shell behind
// cmd/vnlsh: a line-oriented interface over a 2VNL store with commands for
// sessions, maintenance transactions, query rewriting, and inspection.
package shell

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// HelpText describes the shell's statements and commands.
const HelpText = `statements:
  CREATE TABLE ... ( ... UPDATABLE ..., UNIQUE KEY(...) )   create a versioned table
  SELECT ...                run in the open session (or a throwaway one)
  INSERT/UPDATE/DELETE ...  run in the open maintenance transaction
commands:
  \session          begin a reader session (captures sessionVN)
  \end              close the session
  \maint            begin the maintenance transaction
  \commit           commit it
  \rollback         abort it
  \rewrite <query>  print the rewritten form of a reader query
  \tables           list versioned tables and their schemas
  \status           currentVN, maintenanceActive, session state
  \metrics [json]   dump the store's metrics snapshot (text or JSON)
  \trace [n]        print the last n trace events (default 20)
  \gc               garbage-collect logically deleted tuples
  \checkpoint <path>  write a compact recovery checkpoint of the warehouse
  \help             this text
  \quit             exit`

// Shell holds the interactive state: at most one open session and one open
// maintenance transaction.
type Shell struct {
	store *core.Store
	out   io.Writer
	sess  *core.Session
	maint *core.Maintenance
}

// New builds a shell over the store, writing responses to out.
func New(store *core.Store, out io.Writer) *Shell {
	return &Shell{store: store, out: out}
}

// Close releases the shell's open session and aborts any open maintenance
// transaction.
func (sh *Shell) Close() {
	if sh.sess != nil {
		sh.sess.Close()
		sh.sess = nil
	}
	if sh.maint != nil {
		_ = sh.maint.Rollback()
		sh.maint = nil
	}
}

func (sh *Shell) printf(format string, args ...any) {
	fmt.Fprintf(sh.out, format, args...)
}

// Execute runs one input line and reports whether the shell should exit.
// Blank lines are no-ops.
func (sh *Shell) Execute(line string) (quit bool) {
	line = strings.TrimSpace(line)
	if line == "" {
		return false
	}
	switch {
	case strings.HasPrefix(line, "\\"):
		return sh.command(line)
	case hasPrefixFold(line, "CREATE"):
		sh.create(line)
	case hasPrefixFold(line, "SELECT"):
		sh.query(line)
	case hasPrefixFold(line, "INSERT"), hasPrefixFold(line, "UPDATE"), hasPrefixFold(line, "DELETE"):
		sh.dml(line)
	default:
		sh.printf("unrecognized input; \\help for help\n")
	}
	return false
}

func (sh *Shell) command(line string) (quit bool) {
	parts := strings.SplitN(line, " ", 2)
	switch parts[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		sh.printf("%s\n", HelpText)
	case "\\session":
		if sh.sess != nil {
			sh.sess.Close()
		}
		sh.sess = sh.store.BeginSession()
		sh.printf("session begun at VN %d\n", sh.sess.VN())
	case "\\end":
		if sh.sess != nil {
			sh.sess.Close()
			sh.sess = nil
			sh.printf("session closed\n")
		}
	case "\\maint":
		m, err := sh.store.BeginMaintenance()
		if err != nil {
			sh.printf("error: %v\n", err)
			return false
		}
		sh.maint = m
		sh.printf("maintenance transaction begun, maintenanceVN %d\n", m.VN())
	case "\\commit":
		if sh.maint == nil {
			sh.printf("no maintenance transaction\n")
			return false
		}
		if err := sh.maint.Commit(); err != nil {
			sh.printf("error: %v\n", err)
			return false
		}
		st := sh.maint.Stats()
		sh.maint = nil
		sh.printf("committed: currentVN now %d (%d ins, %d upd, %d del logical)\n",
			sh.store.CurrentVN(), st.LogicalInserts, st.LogicalUpdates, st.LogicalDeletes)
	case "\\rollback":
		if sh.maint == nil {
			sh.printf("no maintenance transaction\n")
			return false
		}
		if err := sh.maint.Rollback(); err != nil {
			sh.printf("error: %v\n", err)
			return false
		}
		sh.maint = nil
		sh.printf("rolled back\n")
	case "\\rewrite":
		if len(parts) < 2 {
			sh.printf("usage: \\rewrite SELECT ...\n")
			return false
		}
		sh.withSession(func(s *core.Session) {
			out, err := s.Rewrite(parts[1])
			if err != nil {
				sh.printf("error: %v\n", err)
				return
			}
			sh.printf("%s\n", out)
		})
	case "\\tables":
		for _, vt := range sh.store.Tables() {
			sh.printf("  %s\n    extended: %s\n", vt.Base(), vt.Extended())
		}
	case "\\status":
		sh.printf("currentVN=%d maintenanceActive=%v activeSessions=%d\n",
			sh.store.CurrentVN(), sh.store.MaintenanceActive(), sh.store.ActiveSessions())
		if sh.sess != nil {
			sh.printf("session VN=%d expired=%v\n", sh.sess.VN(), sh.sess.Expired())
		}
		if sh.maint != nil {
			sh.printf("maintenance VN=%d stats=%+v\n", sh.maint.VN(), sh.maint.Stats())
		}
		for table, dead := range sh.store.DeadTuples() {
			if dead > 0 {
				sh.printf("%s: %d logically-deleted tuples awaiting GC\n", table, dead)
			}
		}
	case "\\metrics":
		snap := sh.store.Metrics().Snapshot()
		if snap.Empty() {
			sh.printf("no metrics recorded yet\n")
			return false
		}
		var err error
		if len(parts) > 1 && strings.TrimSpace(parts[1]) == "json" {
			err = snap.WriteJSON(sh.out)
		} else {
			err = snap.WriteText(sh.out)
		}
		if err != nil {
			sh.printf("error: %v\n", err)
		}
	case "\\trace":
		ring, ok := sh.store.Tracer().(*obs.Ring)
		if !ok {
			sh.printf("tracer is not a ring buffer; no events to show\n")
			return false
		}
		n := 20
		if len(parts) > 1 {
			if v, err := strconv.Atoi(strings.TrimSpace(parts[1])); err == nil && v > 0 {
				n = v
			}
		}
		events := ring.Last(n)
		if len(events) == 0 {
			sh.printf("no trace events yet\n")
			return false
		}
		for _, e := range events {
			sh.printf("  %s\n", e)
		}
		sh.printf("(%d of %d total events)\n", len(events), ring.Total())
	case "\\gc":
		st := sh.store.GC()
		sh.printf("scanned %d, reclaimed %d tuples (%d bytes)\n", st.Scanned, st.Removed, st.BytesReclaimed)
	case "\\checkpoint":
		if len(parts) < 2 {
			sh.printf("usage: \\checkpoint <path>\n")
			return false
		}
		st, err := wal.Checkpoint(sh.store, strings.TrimSpace(parts[1]))
		if err != nil {
			sh.printf("error: %v\n", err)
			return false
		}
		sh.printf("checkpoint written: %d records, %d bytes\n", st.Records, st.Bytes)
	default:
		sh.printf("unknown command; \\help for help\n")
	}
	return false
}

// withSession runs fn with the open session, or a throwaway one.
func (sh *Shell) withSession(fn func(*core.Session)) {
	s := sh.sess
	if s == nil {
		s = sh.store.BeginSession()
		defer s.Close()
	}
	fn(s)
}

func (sh *Shell) create(line string) {
	vt, err := sh.store.CreateTableSQL(line)
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	sh.printf("created versioned table %s (extended: %d columns)\n",
		vt.Base().Name, len(vt.Extended().Columns))
}

func (sh *Shell) query(line string) {
	sh.withSession(func(s *core.Session) {
		rows, err := s.Query(line, nil)
		if err != nil {
			sh.printf("error: %v\n", err)
			return
		}
		sh.printf("%s\n(%d rows)\n", rows, rows.Len())
	})
}

func (sh *Shell) dml(line string) {
	if sh.maint == nil {
		sh.printf("DML requires a maintenance transaction: \\maint first\n")
		return
	}
	count, err := sh.maint.Exec(line, nil)
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	sh.printf("%d row(s) affected (uncommitted)\n", count)
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}
