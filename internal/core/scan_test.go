package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/storage"
)

// LIMIT 0 returns no row on every read path: the cached plan's scan and index
// paths, a prepared statement, and the tree-walker (legacyQuery).
func TestLimitZeroEveryPath(t *testing.T) {
	queries := []string{
		`SELECT k FROM kv LIMIT 0`,
		`SELECT k FROM kv WHERE k = 3 LIMIT 0`,
	}
	check := func(name string, rows *exec.Rows, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rows.Len() != 0 || len(rows.Columns) != 1 {
			t.Errorf("%s: %d rows, columns %v; want no row and one column", name, rows.Len(), rows.Columns)
		}
	}
	s, _ := prepStore(t)
	for _, q := range queries {
		sess := s.BeginSession()
		for i := 0; i < 2; i++ { // miss, then hit
			rows, err := sess.Query(q, nil)
			check("cached "+q, rows, err)
		}
		p, err := s.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sess.QueryPrepared(p, nil)
		check("prepared "+q, rows, err)
		rows, err = legacyQuery(t, sess, q, nil)
		check("tree-walker "+q, rows, err)
		sess.Close()
	}
}

// A WHERE that fails on one tuple fails the query with no partial result,
// and the page latch it failed under is released: maintenance on that page
// proceeds.
func TestScanPredicateErrorReleasesLatch(t *testing.T) {
	s, _ := prepStore(t) // v = 100 + k for k in 0..9
	sess := s.BeginSession()
	defer sess.Close()
	const q = `SELECT k FROM kv WHERE 10 / (v - 105) > 0`
	for i := 0; i < 2; i++ { // compile, then the cached plan
		rows, err := sess.Query(q, nil)
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("err = %v, want a division by zero", err)
		}
		if rows != nil {
			t.Fatalf("failed query leaked %d rows", rows.Len())
		}
	}
	m := mustMaint(t, s)
	if ok, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(5)},
		func(catalog.Tuple) catalog.Tuple { return kvTuple(5, 7) }); err != nil || !ok {
		t.Fatalf("update after the failed scan: ok=%v err=%v", ok, err)
	}
	commit(t, m)
}

// factStore builds the benchmark's scan shape: rows tuples, grp = id mod 64,
// n = 4 versions.
func factStore(t testing.TB, rows int64) *Store {
	t.Helper()
	return factStorePool(t, rows, 0)
}

// factStorePool is factStore over a database with a buffer pool of
// poolPages pages (0: none, as a serving store runs).
func factStorePool(t testing.TB, rows int64, poolPages int) *Store {
	t.Helper()
	s, err := Open(db.Open(db.Options{PoolPages: poolPages}), Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTableSQL(`CREATE TABLE fact (id INT(8), grp INT(8), qty INT(8) UPDATABLE, amount INT(8) UPDATABLE, UNIQUE KEY(id))`); err != nil {
		t.Fatal(err)
	}
	m, err := s.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < rows; id++ {
		if err := m.Insert("fact", catalog.Tuple{catalog.NewInt(id), catalog.NewInt(id % 64), catalog.NewInt(id * 3), catalog.NewInt(id * 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// The allocation pin for an indexed point read through a compiled plan on a
// 2VNL table: the session's version binds without a parameter map and the
// evaluation context holds the index lookup's scratch, so what is left is
// the context, the index probe (key and RID list), the tuple copied out
// under its page latch, and the result. The limit leaves a little room;
// raising it needs a reason.
func TestPointReadAllocations(t *testing.T) {
	s := factStore(t, 1024)
	p, err := s.Prepare(`SELECT id, qty, amount FROM fact WHERE id = :k`)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession()
	defer sess.Close()
	params := exec.Params{"k": catalog.NewInt(77)}
	allocs := testing.AllocsPerRun(200, func() {
		rows, err := sess.QueryPrepared(p, params)
		if err != nil || rows.Len() != 1 || rows.Tuples[0][2].Int() != 77*7 {
			t.Fatalf("rows=%v err=%v", rows, err)
		}
	})
	t.Logf("%.1f allocations per point read", allocs)
	if allocs > 7 {
		t.Errorf("%.1f allocations per compiled point read; the limit is 7", allocs)
	}
}

// The allocation pin for a prepared scan returning 256 of 16 384 rows, every
// page clean at the session's version: the kernel selects each page's
// survivors from its image, and each is projected in place under the page
// latch, so what is left is the context, the selection, the result and its
// row chunks — nothing per page or per tuple scanned (16 958 allocations
// before the in-place filter, 32 while the walker copied each survivor out).
// The limit leaves a little room; raising it needs a reason.
func TestPreparedScanAllocations(t *testing.T) {
	s := factStore(t, 16384)
	p, err := s.Prepare(`SELECT id, qty, amount FROM fact WHERE grp = :g`)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession()
	defer sess.Close()
	params := exec.Params{"g": catalog.NewInt(5)}
	allocs := testing.AllocsPerRun(10, func() {
		rows, err := sess.QueryPrepared(p, params)
		if err != nil || rows.Len() != 256 {
			t.Fatalf("rows=%v err=%v", rows.Len(), err)
		}
	})
	t.Logf("%.1f allocations per 256-row scan of 16384 rows", allocs)
	if allocs > 26 {
		t.Errorf("%.1f allocations per 256-row scan of 16384 rows; the limit is 26", allocs)
	}
}

// pagesAt counts vt's pages that are clean at version vn and the live
// tuples of the pages that are not.
func pagesAt(vt *VTable, vn VN) (clean, dirty int, err error) {
	err = vt.Storage().ScanFilter(storage.Filter{
		Page: func(v storage.PageView, sel []int32) ([]int32, error) {
			if v.Clean() {
				clean++
				return sel, nil
			}
			for si := 0; si < v.Slots(); si++ {
				if v.Live(si) {
					dirty++
				}
			}
			return sel, nil
		},
		VN: int64(vn),
	}, func([]storage.RID, []catalog.Tuple) bool { return true })
	return clean, dirty, err
}

// A projection that fails on one tuple fails the whole query with no row,
// though the rows before it were already projected in place: on a page
// clean at the session's version, where the survivors of the page's
// selection are projected, and on a dirty one, where each tuple is
// projected after the slot selector reads it. A LIMIT that ends before the
// failing tuple answers its rows through the compiled plan and through the
// tree-walker that stale-plan recovery runs (exec.SelectAt) alike.
func TestScanProjectionErrorFailsQuery(t *testing.T) {
	s := newStore(t, 2)
	vt, err := s.CreateTable(kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < 20; k++ {
		v := 100 + k
		if k == 7 {
			v = 0
		}
		if err := m.Insert("kv", kvTuple(k, v)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	dirty := s.BeginSession()
	defer dirty.Close()
	m = mustMaint(t, s)
	if ok, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(0)},
		func(catalog.Tuple) catalog.Tuple { return kvTuple(0, 1) }); err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v", ok, err)
	}
	commit(t, m)
	clean := s.BeginSession()
	defer clean.Close()
	for _, c := range []struct {
		name  string
		sess  *Session
		clean bool
	}{{"clean", clean, true}, {"dirty", dirty, false}} {
		t.Run(c.name, func(t *testing.T) {
			if nclean, ndirty, err := pagesAt(vt, c.sess.VN()); err != nil || (nclean > 0) != c.clean || (ndirty > 0) == c.clean {
				t.Fatalf("at VN %d: %d clean pages, %d tuples on dirty ones (%v)", c.sess.VN(), nclean, ndirty, err)
			}
			for _, q := range []string{`SELECT k, 10 / v FROM kv WHERE k < 100`, `SELECT k, 10 / v FROM kv`} {
				rows, err := c.sess.Query(q, nil)
				if err == nil || !strings.Contains(err.Error(), "division by zero") {
					t.Fatalf("%s: err = %v, want a division by zero", q, err)
				}
				if rows != nil {
					t.Fatalf("%s: failed query returned %d rows", q, rows.Len())
				}
			}
			const limited = `SELECT k, 10 / v FROM kv LIMIT 2`
			compiled, cerr := c.sess.Query(limited, nil)
			walked, werr := exec.SelectAt(queryCatalog{s}, mustParse(t, limited), nil, int64(c.sess.VN()))
			if cerr != nil || werr != nil || compiled.Len() != 2 || fmt.Sprint(compiled.Tuples) != fmt.Sprint(walked.Tuples) {
				t.Fatalf("%s: compiled %v (%v), tree-walker %v (%v); want the same two rows", limited, compiled, cerr, walked, werr)
			}
		})
	}
}

// A compiled predicate allocates only when it fails (storage.Heap.ScanFilter's
// rule), and COALESCE is no exception: a scan whose WHERE rejects every row
// allocates as much over 4 096 rows as over 16 — on pages clean at the
// session's version, and on pages a later transaction rewrote, where each
// tuple goes through ExtTable.Slot first. Both hold with a buffer pool and
// without one.
func TestRejectingScanAllocatesNothingPerPage(t *testing.T) {
	for _, pool := range []int{1024, 0} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) { testRejectingScanAllocates(t, pool) })
	}
}

func testRejectingScanAllocates(t *testing.T, pool int) {
	allocs := func(rows int64, rewrite bool) float64 {
		s := factStorePool(t, rows, pool)
		sess := s.BeginSession()
		defer sess.Close()
		if rewrite {
			m := mustMaint(t, s)
			if _, err := m.Exec(`UPDATE fact SET qty = qty + 1`, nil); err != nil {
				t.Fatal(err)
			}
			commit(t, m)
		}
		p, err := s.Prepare(`SELECT id FROM fact WHERE COALESCE(qty, 0) > :x`)
		if err != nil {
			t.Fatal(err)
		}
		params := exec.Params{"x": catalog.NewInt(1 << 40)}
		return testing.AllocsPerRun(20, func() {
			rows, err := sess.QueryPrepared(p, params)
			if err != nil || rows.Len() != 0 {
				t.Fatalf("rows=%v err=%v", rows, err)
			}
		})
	}
	for _, rewrite := range []bool{false, true} {
		if few, many := allocs(16, rewrite), allocs(4096, rewrite); many != few {
			t.Errorf("rewritten pages %v: a rejecting scan allocates %.1f times over 16 rows, %.1f over 4096: want no per-page allocation", rewrite, few, many)
		}
	}
}

// The clean-page kernel allocates nothing per page: a kernel WHERE allocates
// as much over 4 096 rows as over 16 384, in a scan that rejects every row
// and in an aggregate that folds 1 row in 64 (its selection grows on the
// first page and is reused after). And a scan that returns rows allocates at
// most once more on clean pages than on pages a later transaction rewrote,
// which decide each tuple through ExtTable.Slot and keep no selection. All
// three hold with a buffer pool and without one.
func TestCleanPageKernelAllocatesNothingPerPage(t *testing.T) {
	for _, pool := range []int{1024, 0} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) { testCleanPageKernelAllocates(t, pool) })
	}
}

func testCleanPageKernelAllocates(t *testing.T, pool int) {
	type query struct {
		sql string
		g   int64
	}
	rejecting := query{`SELECT id FROM fact WHERE grp = :g`, 1 << 40}
	folding := query{`SELECT COUNT(*), SUM(amount) FROM fact WHERE grp = :g`, 5}
	returning := query{`SELECT id, qty, amount FROM fact WHERE grp = :g`, 5}
	allocs := func(rows int64, rewrite bool, q query) float64 {
		s := factStorePool(t, rows, pool)
		sess := s.BeginSession()
		defer sess.Close()
		if rewrite {
			m := mustMaint(t, s)
			if _, err := m.Exec(`UPDATE fact SET qty = qty + 1`, nil); err != nil {
				t.Fatal(err)
			}
			commit(t, m)
		}
		p, err := s.Prepare(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := s.selectPlan(p.src, "")
		if err != nil || !pe.plan.Kernel() {
			t.Fatalf("%q does not compile to the kernel (%v)", q.sql, err)
		}
		params := exec.Params{"g": catalog.NewInt(q.g)}
		return testing.AllocsPerRun(20, func() {
			if _, err := sess.QueryPrepared(p, params); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, q := range []query{rejecting, folding} {
		if few, many := allocs(4096, false, q), allocs(16384, false, q); many != few {
			t.Errorf("%q: %.1f allocations over 4096 rows, %.1f over 16384: want no per-page allocation", q.sql, few, many)
		}
	}
	clean, dirty := allocs(4096, false, returning), allocs(4096, true, returning)
	t.Logf("%q: %.1f allocations on clean pages, %.1f on rewritten ones", returning.sql, clean, dirty)
	if clean > dirty+1 {
		t.Errorf("%q: %.1f allocations on clean pages, %.1f on rewritten ones: want at most one more", returning.sql, clean, dirty)
	}
}

// BenchmarkPreparedScan runs the benchmark's scan and GROUP BY statements
// through QueryPrepared over 16 384 rows at n = 4, every page clean at the
// session's version: the engine's share of the `scan` and `online` reads.
// orderby and distinct are shapes the compiled plans do not cover, so the
// tree-walker serves them. scan_dirty is scan for a session that began
// before a transaction rewrote the first half of the table: that half's
// pages are dirty at its version, so their tuples run the slot selector and
// the WHERE's closure in place, as `online` and `sharded` readers meet the
// pages their writer touches. groupby_dirty is groupby on onlineDirty's
// pages, every one dirty at the session's version, as `online`'s reader
// meets them: the current slots fold from the image, the others through the
// slot selector.
func BenchmarkPreparedScan(b *testing.B) {
	b.Run("groupby_dirty", func(b *testing.B) {
		s := factStore(b, 16384)
		p, err := s.Prepare(`SELECT grp, COUNT(*), SUM(amount) FROM fact GROUP BY grp`)
		if err != nil {
			b.Fatal(err)
		}
		sess, m := onlineDirty(b, s, 16384)
		defer sess.Close()
		defer func() { _ = m.Rollback() }() // nothing reads the table after the run
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.QueryPrepared(p, exec.Params{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan_dirty", func(b *testing.B) {
		s := factStore(b, 16384)
		p, err := s.Prepare(`SELECT id, qty, amount FROM fact WHERE grp = :g`)
		if err != nil {
			b.Fatal(err)
		}
		sess := s.BeginSession()
		defer sess.Close()
		m := mustMaint(b, s)
		if _, err := m.Exec(`UPDATE fact SET qty = qty + 1 WHERE id < 8192`, nil); err != nil {
			b.Fatal(err)
		}
		commit(b, m)
		params := exec.Params{"g": catalog.NewInt(5)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.QueryPrepared(p, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	s := factStore(b, 16384)
	for _, q := range []struct{ name, sql string }{
		{"scan", `SELECT id, qty, amount FROM fact WHERE grp = :g`},
		{"groupby", `SELECT grp, COUNT(*), SUM(amount) FROM fact GROUP BY grp`},
		{"orderby", `SELECT id, qty, amount FROM fact WHERE grp = :g ORDER BY amount DESC LIMIT 10`},
		{"distinct", `SELECT DISTINCT qty FROM fact WHERE grp = :g`},
	} {
		b.Run(q.name, func(b *testing.B) {
			p, err := s.Prepare(q.sql)
			if err != nil {
				b.Fatal(err)
			}
			sess := s.BeginSession()
			defer sess.Close()
			params := exec.Params{"g": catalog.NewInt(5)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.QueryPrepared(p, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
