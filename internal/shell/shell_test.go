package shell

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
)

func newShell(t *testing.T) (*Shell, *strings.Builder) {
	t.Helper()
	store, err := core.Open(db.Open(db.Options{}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sh := New(store, &out)
	t.Cleanup(sh.Close)
	return sh, &out
}

// run executes lines and returns the accumulated output.
func run(t *testing.T, sh *Shell, out *strings.Builder, lines ...string) string {
	t.Helper()
	out.Reset()
	for _, l := range lines {
		if sh.Execute(l) {
			t.Fatalf("unexpected quit on %q", l)
		}
	}
	return out.String()
}

func TestShellWorkflow(t *testing.T) {
	sh, out := newShell(t)
	got := run(t, sh, out, `CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`)
	if !strings.Contains(got, "created versioned table kv") {
		t.Fatalf("create: %q", got)
	}
	got = run(t, sh, out,
		`\maint`,
		`INSERT INTO kv VALUES (1, 10), (2, 20)`,
		`\commit`,
	)
	for _, want := range []string{"maintenanceVN 2", "2 row(s) affected", "currentVN now 2"} {
		if !strings.Contains(got, want) {
			t.Errorf("maintenance flow missing %q:\n%s", want, got)
		}
	}
	got = run(t, sh, out, `\session`, `SELECT k, v FROM kv ORDER BY k`)
	if !strings.Contains(got, "session begun at VN 2") || !strings.Contains(got, "(2 rows)") {
		t.Errorf("session query:\n%s", got)
	}
	got = run(t, sh, out, `\rewrite SELECT SUM(v) FROM kv`)
	if !strings.Contains(got, "CASE WHEN (:sessionVN >= tupleVN) THEN v ELSE pre_v END") {
		t.Errorf("rewrite:\n%s", got)
	}
	got = run(t, sh, out, `\status`)
	if !strings.Contains(got, "currentVN=2") || !strings.Contains(got, "session VN=2") {
		t.Errorf("status:\n%s", got)
	}
	got = run(t, sh, out, `\end`)
	if !strings.Contains(got, "session closed") {
		t.Errorf("end:\n%s", got)
	}
}

func TestShellRollbackAndGC(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, out,
		`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`,
		`\maint`, `INSERT INTO kv VALUES (1, 10)`, `\commit`,
	)
	got := run(t, sh, out, `\maint`, `UPDATE kv SET v = 99`, `\rollback`, `\session`, `SELECT v FROM kv`)
	if !strings.Contains(got, "rolled back") || !strings.Contains(got, "10") || strings.Contains(got, "99") {
		t.Errorf("rollback flow:\n%s", got)
	}
	got = run(t, sh, out, `\maint`, `DELETE FROM kv WHERE k = 1`, `\commit`, `\end`, `\gc`)
	if !strings.Contains(got, "reclaimed 1 tuples") {
		t.Errorf("gc flow:\n%s", got)
	}
}

func TestShellErrorsAndHelp(t *testing.T) {
	sh, out := newShell(t)
	got := run(t, sh, out, `\help`)
	if !strings.Contains(got, "\\rewrite") {
		t.Errorf("help:\n%s", got)
	}
	got = run(t, sh, out, `INSERT INTO kv VALUES (1, 1)`)
	if !strings.Contains(got, "requires a maintenance transaction") {
		t.Errorf("dml without maint:\n%s", got)
	}
	got = run(t, sh, out, `\commit`)
	if !strings.Contains(got, "no maintenance transaction") {
		t.Errorf("commit without maint:\n%s", got)
	}
	got = run(t, sh, out, `\rollback`)
	if !strings.Contains(got, "no maintenance transaction") {
		t.Errorf("rollback without maint:\n%s", got)
	}
	got = run(t, sh, out, `SELECT * FROM nope`)
	if !strings.Contains(got, "error:") {
		t.Errorf("bad select:\n%s", got)
	}
	got = run(t, sh, out, `CREATE TABLE bad (tupleVN INT)`)
	if !strings.Contains(got, "error:") {
		t.Errorf("reserved name:\n%s", got)
	}
	got = run(t, sh, out, `\nonsense`)
	if !strings.Contains(got, "unknown command") {
		t.Errorf("unknown command:\n%s", got)
	}
	got = run(t, sh, out, `garbage input`)
	if !strings.Contains(got, "unrecognized input") {
		t.Errorf("garbage:\n%s", got)
	}
	got = run(t, sh, out, `\rewrite`)
	if !strings.Contains(got, "usage") {
		t.Errorf("rewrite usage:\n%s", got)
	}
	// Blank lines are silent no-ops.
	if got := run(t, sh, out, ``, `   `); got != "" {
		t.Errorf("blank line output: %q", got)
	}
	if !sh.Execute(`\quit`) {
		t.Error("quit did not quit")
	}
	if !sh.Execute(`\q`) {
		t.Error("q did not quit")
	}
}

func TestShellCheckpoint(t *testing.T) {
	sh, out := newShell(t)
	path := t.TempDir() + "/ckpt.log"
	got := run(t, sh, out,
		`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`,
		`\maint`, `INSERT INTO kv VALUES (1, 10)`, `\commit`,
		`\checkpoint `+path)
	if !strings.Contains(got, "checkpoint written") {
		t.Fatalf("checkpoint:\n%s", got)
	}
	if got := run(t, sh, out, `\checkpoint`); !strings.Contains(got, "usage") {
		t.Errorf("checkpoint usage:\n%s", got)
	}
	// Checkpointing mid-maintenance is refused.
	got = run(t, sh, out, `\maint`, `\checkpoint `+path, `\rollback`)
	if !strings.Contains(got, "error:") {
		t.Errorf("checkpoint during maintenance:\n%s", got)
	}
}

func TestShellTables(t *testing.T) {
	sh, out := newShell(t)
	got := run(t, sh, out,
		`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`,
		`\tables`)
	if !strings.Contains(got, "kv(") || !strings.Contains(got, "extended:") {
		t.Errorf("tables:\n%s", got)
	}
}

// TestShellMaintRollbackOfInsert: a rolled-back insert leaves no row.
func TestShellMaintRollbackOfInsert(t *testing.T) {
	sh, out := newShell(t)
	got := run(t, sh, out,
		`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`,
		`\maint`, `INSERT INTO kv VALUES (1, 1)`, `\rollback`,
		`\session`, `SELECT COUNT(*) FROM kv`)
	if !strings.Contains(got, "rolled back") || !strings.Contains(got, "0") {
		t.Errorf("rollback of an insert:\n%s", got)
	}
}

// TestShellCloseAbortsOpenMaintenance: closing with an open transaction
// rolls it back so the store is reusable.
func TestShellCloseAbortsOpenMaintenance(t *testing.T) {
	store, err := core.Open(db.Open(db.Options{}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sh := New(store, &out)
	sh.Execute(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`)
	sh.Execute(`\maint`)
	sh.Close()
	if store.MaintenanceActive() {
		t.Error("maintenance left active after Close")
	}
	if _, err := store.BeginMaintenance(); err != nil {
		t.Errorf("store unusable after shell close: %v", err)
	}
}

// \metrics surfaces the store's plan-cache counters: repeating an ad-hoc
// SELECT inside a session hits the cache, and the hit shows up in the dump.
func TestShellMetricsShowsPlanCache(t *testing.T) {
	store, err := core.Open(db.Open(db.Options{}), core.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sh := New(store, &out)
	t.Cleanup(sh.Close)
	run(t, sh, &out,
		`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`,
		`\maint`, `INSERT INTO kv VALUES (1, 10), (2, 20)`, `\commit`,
		`\session`, `SELECT v FROM kv WHERE k = 1`, `SELECT v FROM kv WHERE k = 1`,
	)
	got := run(t, sh, &out, `\metrics`)
	if !strings.Contains(got, "core_plan_cache_misses_total") || !strings.Contains(got, "core_plan_cache_hits_total") {
		t.Fatalf("\\metrics missing plan cache counters:\n%s", got)
	}
	snap := store.Metrics().Snapshot()
	if snap.Counters["core_plan_cache_hits_total"] < 1 {
		t.Fatalf("repeated shell query did not hit the plan cache: %v", snap.Counters)
	}
}

// TestShellFailedStatementChangesNothing: an UPDATE that fails on one of its
// rows prints the error and writes none of them, so the transaction commits
// with no logical update and the table reads as before.
func TestShellFailedStatementChangesNothing(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, out,
		`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`,
		`\maint`, `INSERT INTO kv VALUES (1, 10), (2, 0)`, `\commit`,
	)
	const sel = `SELECT k, v FROM kv ORDER BY k`
	before := run(t, sh, out, sel)
	if got := run(t, sh, out, `\maint`, `UPDATE kv SET v = 10 / v`); !strings.Contains(got, "error: exec: division by zero") {
		t.Fatalf("failing update:\n%s", got)
	}
	if got := run(t, sh, out, sel); got != before {
		t.Errorf("after the failed update the table reads\n%s\nwant\n%s", got, before)
	}
	if got := run(t, sh, out, `\commit`); !strings.Contains(got, "committed: currentVN now 3 (0 ins, 0 upd, 0 del logical)") {
		t.Fatalf("commit after the failed update:\n%s", got)
	}
	if got := run(t, sh, out, sel); got != before {
		t.Errorf("after the commit the table reads\n%s\nwant\n%s", got, before)
	}
}
