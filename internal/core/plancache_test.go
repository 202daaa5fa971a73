package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
)

func planCounts(reg *obs.Registry) (hits, misses int64) {
	snap := reg.Snapshot()
	return snap.Counters["core_plan_cache_hits_total"],
		snap.Counters["core_plan_cache_misses_total"]
}

// Repeated ad-hoc query text is served from the plan cache: the first call
// misses (parse + rewrite + compile), later calls hit — by raw text through
// Session.Query and by canonical form through Session.QueryStmt.
func TestPlanCacheHitMiss(t *testing.T) {
	s, reg := prepStore(t)
	sess := s.BeginSession()
	defer sess.Close()

	const q = `SELECT k, v FROM kv WHERE k < 5`
	if _, err := sess.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	if h, m := planCounts(reg); h != 0 || m != 1 {
		t.Fatalf("after first query: hits=%d misses=%d, want 0/1", h, m)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.Query(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := planCounts(reg); h != 3 || m != 1 {
		t.Fatalf("after repeats: hits=%d misses=%d, want 3/1", h, m)
	}

	// A textual variant of the same statement (keyword case, whitespace)
	// shares the plan through the canonical key: no second compile.
	if _, err := sess.Query("select  k, v  from kv  where k < 5", nil); err != nil {
		t.Fatal(err)
	}
	if h, m := planCounts(reg); h != 4 || m != 1 {
		t.Fatalf("after variant spelling: hits=%d misses=%d, want 4/1", h, m)
	}

	// QueryStmt keys on the canonical form and hits too.
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.QueryStmt(sel, nil); err != nil {
		t.Fatal(err)
	}
	if h, m := planCounts(reg); h != 5 || m != 1 {
		t.Fatalf("after QueryStmt: hits=%d misses=%d, want 5/1", h, m)
	}

	// The cached plan for a single-table scan/filter/project over a
	// versioned relation is the vectorized one, not a fallback.
	e := s.plans.get(q, s.tables.Load())
	if e == nil {
		t.Fatal("raw text not in cache")
	}
	if !e.plan.Vectorized() {
		t.Fatal("cached plan is not vectorized")
	}
}

// CreateTable and AdoptTable publish a fresh table registry; every cached
// plan must be discarded (pointer-compare invalidation) and re-derived.
func TestPlanCacheInvalidation(t *testing.T) {
	s, reg := prepStore(t)
	sess := s.BeginSession()
	defer sess.Close()
	const q = `SELECT k FROM kv WHERE v > 0`
	query := func() {
		t.Helper()
		if _, err := sess.Query(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	query()
	query()
	if h, m := planCounts(reg); h != 1 || m != 1 {
		t.Fatalf("warmup: hits=%d misses=%d, want 1/1", h, m)
	}

	// Maintenance commits do not flip the registry: still a hit.
	mt := mustMaint(t, s)
	if err := mt.Insert("kv", kvTuple(500, 1)); err != nil {
		t.Fatal(err)
	}
	commit(t, mt)
	query()
	if h, m := planCounts(reg); h != 2 || m != 1 {
		t.Fatalf("after commit: hits=%d misses=%d, want 2/1", h, m)
	}

	// CreateTable flips the registry: miss, re-derive.
	if _, err := s.CreateTable(catalog.MustSchema("other", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
	}, "k")); err != nil {
		t.Fatal(err)
	}
	query()
	if h, m := planCounts(reg); h != 2 || m != 2 {
		t.Fatalf("after CreateTable: hits=%d misses=%d, want 2/2", h, m)
	}

	// AdoptTable flips it too — and the re-derived plan must now treat the
	// adopted table as versioned.
	plain := catalog.MustSchema("plain", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
	pt, err := s.DB().CreateTable(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Insert(kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Cache a plan over the plain table, then adopt it.
	sessQ := func(text string) *exec.Rows {
		t.Helper()
		rows, err := sess.Query(text, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	before := sessQ(`SELECT k, v FROM plain`)
	if before.Len() != 1 {
		t.Fatalf("plain rows = %d, want 1", before.Len())
	}
	if _, err := s.AdoptTable("plain"); err != nil {
		t.Fatal(err)
	}
	h0, m0 := planCounts(reg)
	after := sessQ(`SELECT k, v FROM plain`)
	h1, m1 := planCounts(reg)
	if h1 != h0 || m1 != m0+1 {
		t.Fatalf("adoption did not invalidate: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	// The adopted table reads identically through the re-derived (now
	// version-rewritten) plan.
	if fmt.Sprint(after.Tuples) != fmt.Sprint(before.Tuples) {
		t.Fatalf("adopted read %v, want %v", after.Tuples, before.Tuples)
	}
}

// legacyQuery is the pre-cache oracle: fresh rewrite, tree-walking executor,
// at the session's version.
func legacyQuery(t *testing.T, sess *Session, text string, params exec.Params) (*exec.Rows, error) {
	t.Helper()
	sel, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	rw, err := RewriteSelect(sess.store, sel)
	if err != nil {
		return nil, err
	}
	return exec.Select(queryCatalog{sess.store}, rw, withSessionVN(params, sess.vn))
}

// The cached/vectorized pipeline is pinned against the per-call rewrite +
// tree-walking oracle across a multi-version history: sessions at three
// different VNs, tuples with mixed slot states (inserted, updated, deleted
// at different versions), so one page holds tuples that take the case-1 fast
// variant beside tuples that need the full CASE reconstruction.
func TestQueryDifferentialAcrossVersions(t *testing.T) {
	s := newStore(t, 4) // nVNL so three sessions stay reconstructible
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	// VN 1→2: keys 0..99.
	m := mustMaint(t, s)
	for k := int64(0); k < 100; k++ {
		if err := m.Insert("kv", kvTuple(k, 100+k)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	sessA := s.BeginSession()
	defer sessA.Close()

	// VN 2→3: update a third, delete a few, insert new keys.
	m = mustMaint(t, s)
	for k := int64(0); k < 100; k += 3 {
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(k)},
			func(catalog.Tuple) catalog.Tuple { return kvTuple(k, 1000+k) }); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(5); k < 100; k += 20 {
		if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(200); k < 220; k++ {
		if err := m.Insert("kv", kvTuple(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	sessB := s.BeginSession()
	defer sessB.Close()

	// VN 3→4: touch a different slice.
	m = mustMaint(t, s)
	for k := int64(1); k < 100; k += 7 {
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(k)},
			func(old catalog.Tuple) catalog.Tuple { return kvTuple(k, old[1].Int()+5) }); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	sessC := s.BeginSession()
	defer sessC.Close()

	queries := []string{
		`SELECT * FROM kv`,
		`SELECT k, v FROM kv WHERE v < 150`,
		`SELECT k FROM kv WHERE v >= 1000`,
		`SELECT k, v + 1 FROM kv WHERE k >= 10 AND k < 60`,
		`SELECT v FROM kv WHERE k = :k`,
		`SELECT k FROM kv WHERE v BETWEEN 120 AND 140 LIMIT 5`,
		`SELECT k FROM kv LIMIT 0`,
		`SELECT v FROM kv WHERE k = :k LIMIT 0`,
		`SELECT COUNT(*) FROM kv`,
		`SELECT k, v FROM kv WHERE v <> 0 ORDER BY v, k LIMIT 9`,
		`SELECT CASE WHEN v < 150 THEN 'lo' ELSE 'hi' END FROM kv WHERE k < 20`,
	}
	queries = append(queries, groupByQueries...)
	params := exec.Params{"k": catalog.NewInt(33)}
	for _, sess := range []*Session{sessA, sessB, sessC} {
		for _, q := range queries {
			want, werr := legacyQuery(t, sess, q, params)
			got, gerr := sess.Query(q, params)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("vn=%d %q: oracle err=%v, cached err=%v", sess.VN(), q, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
				t.Fatalf("vn=%d %q: columns %v vs %v", sess.VN(), q, got.Columns, want.Columns)
			}
			if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
				t.Fatalf("vn=%d %q:\ncached: %v\noracle: %v", sess.VN(), q, got.Tuples, want.Tuples)
			}
		}
	}

	// The per-tuple (optimistic expiry) sessions run the same cached plans.
	sessP := s.BeginSessionPerTupleExpiry()
	defer sessP.Close()
	for _, q := range queries {
		want, werr := legacyQuery(t, sessP, q, params)
		got, gerr := sessP.Query(q, params)
		if (werr == nil) != (gerr == nil) || (werr == nil && fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples)) {
			t.Fatalf("per-tuple %q diverged: %v / %v vs %v / %v", q, got, gerr, want, werr)
		}
	}

	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("group by/n=%d", n), func(t *testing.T) { groupByAcrossVersions(t, n) })
	}
}

// groupByQueries aggregate kv grouped by a key expression over k (never
// updated) and by one over the updatable v, whose group a tuple falls in
// depends on the session's version.
var groupByQueries = []string{
	`SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM kv`,
	`SELECT k / 10, COUNT(*), SUM(v) FROM kv GROUP BY k / 10`,
	`SELECT v / 100, COUNT(*), MIN(k) FROM kv GROUP BY v / 100`,
	`SELECT k / 25, SUM(v) FROM kv WHERE v < 1000 GROUP BY k / 25 HAVING SUM(v) > 0`,
	`SELECT k / 10, MAX(v) FROM kv WHERE k >= :k GROUP BY k / 10 LIMIT 3`,
}

// groupByAcrossVersions pins the compiled aggregate against legacyQuery at
// width n for sessions pinned before, during and after maintenance
// transactions, including one whose query a commit overtakes (midQueryHook):
// a session reads its version or reports ErrSessionExpired, never a partial
// aggregate.
func groupByAcrossVersions(t *testing.T, n int) {
	s := newStore(t, n)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < 100; k++ {
		if err := m.Insert("kv", kvTuple(k, 100+k)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	// maintain runs one transaction that updates, deletes and inserts, and
	// leaves it open for the caller to commit.
	round := int64(0)
	maintain := func() *Maintenance {
		round++
		m := mustMaint(t, s)
		for k := round; k < 100; k += 3 {
			if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(k)},
				func(old catalog.Tuple) catalog.Tuple { return kvTuple(k, old[1].Int()+37*round) }); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(round * 11)}); err != nil {
			t.Fatal(err)
		}
		if err := m.Insert("kv", kvTuple(100+round, round)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	params := exec.Params{"k": catalog.NewInt(40)}
	check := func(sess *Session, wantExpired bool) {
		t.Helper()
		for _, q := range groupByQueries {
			got, gerr := sess.Query(q, params)
			if wantExpired {
				if !errors.Is(gerr, ErrSessionExpired) || got != nil {
					t.Fatalf("vn=%d %q: %v, %v; want ErrSessionExpired and no rows", sess.VN(), q, got, gerr)
				}
				continue
			}
			want, werr := legacyQuery(t, sess, q, params)
			if gerr != nil || werr != nil {
				t.Fatalf("vn=%d %q: cached err=%v, oracle err=%v", sess.VN(), q, gerr, werr)
			}
			if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
				t.Fatalf("vn=%d %q:\ncached: %v\noracle: %v", sess.VN(), q, got.Tuples, want.Tuples)
			}
		}
	}

	before := s.BeginSession()
	defer before.Close()
	m = maintain()
	during := s.BeginSession() // the open transaction's tuples are beyond it
	defer during.Close()
	check(before, false)
	check(during, false)
	commit(t, m)
	after := s.BeginSession()
	defer after.Close()
	check(before, false)
	check(after, false)

	// A second commit: before and during are two transactions behind, which
	// only n > 2 can reconstruct.
	commit(t, maintain())
	check(before, n == 2)
	check(during, n == 2)
	check(after, false)

	// Commits overtaking a query: n-1 of them leave the session's version
	// reconstructible, n do not, and the post-execution check must say so.
	for _, commits := range []int{n - 1, n} {
		sess := s.BeginSession()
		sess.midQueryHook = func() {
			for i := 0; i < commits; i++ {
				commit(t, maintain())
			}
			sess.midQueryHook = nil
		}
		got, err := sess.Query(groupByQueries[1], params)
		if commits == n {
			if !errors.Is(err, ErrSessionExpired) || got != nil {
				t.Fatalf("%d commits mid-query: %v, %v; want ErrSessionExpired and no rows", commits, got, err)
			}
		} else {
			want, werr := legacyQuery(t, sess, groupByQueries[1], params)
			if err != nil || werr != nil || fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
				t.Fatalf("%d commits mid-query: %v, %v; want %v, %v", commits, got, err, want, werr)
			}
		}
		sess.Close()
	}
}

// The benchmark's reader statement, rewritten, compiles to the aggregate
// path: an aggregating statement is vectorized only through the fold.
func TestBenchmarkGroupByCompiles(t *testing.T) {
	s := newStore(t, 4)
	if _, err := s.CreateTable(catalog.MustSchema("fact", []catalog.Column{
		{Name: "id", Type: catalog.TypeInt, Length: 8},
		{Name: "grp", Type: catalog.TypeInt, Length: 8},
		{Name: "qty", Type: catalog.TypeInt, Length: 8, Updatable: true},
		{Name: "amount", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "id")); err != nil {
		t.Fatal(err)
	}
	sel, err := sql.ParseSelect(`SELECT grp, COUNT(*), SUM(amount) FROM fact GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.selectPlan(sel, "")
	if err != nil {
		t.Fatal(err)
	}
	if !e.plan.Vectorized() {
		t.Fatalf("rewritten GROUP BY fell back to the tree-walker:\n%s", sql.Print(e.plan.Statement()))
	}
}

// The cache stays bounded: filling it past the limit evicts rather than
// growing without bound.
func TestPlanCacheBounded(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession()
	defer sess.Close()
	for i := 0; i < 2*planCacheEntries; i++ {
		q := fmt.Sprintf(`SELECT k FROM kv WHERE v = %d`, i)
		if _, err := sess.Query(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.plans.m); n > planCacheEntries {
		t.Fatalf("cache grew to %d entries, bound is %d", n, planCacheEntries)
	}
}
