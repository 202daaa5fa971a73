package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
)

// A heap page's version summary lets a compiled plan skip ExtTable.Slot on
// the pages it calls clean at the reader's version. The proof, at n ∈ {2, 3,
// 4}: random schedules of committed and rolled-back transactions, GC passes and inserts that reuse the slots GC freed, over
// pages of eight or fewer tuples. After every step, and after every
// operation inside a transaction:
//
//   - every tuple the walker hands the page hook on a page clean at vn is
//     one Slot reads in slot 0 and visible at vn, and on every page the
//     version vector calls a slot current at vn (PageView.Current) exactly
//     when Slot reads its tuple in slot 0 and visible there;
//   - the compiled scan and the compiled aggregate answer as the tree-walker
//     over the §4.1 rewrite, at every vn in the window, and so does the
//     rewrite compiled without CompileOptions, which scans the same
//     summarised heap without version slots;
//   - CheckInvariants, which checks each page's summary against its tuples,
//     passes.
//
// The schedules must also reach both kinds of page, or the first property
// proves nothing.
func TestPageSummaryMatchesSelector(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			clean, dirty := 0, 0
			for seed := int64(1); seed <= 4; seed++ {
				c, d := summarySchedule(t, n, seed)
				clean, dirty = clean+c, dirty+d
			}
			t.Logf("%d tuples read on clean pages, %d on the others", clean, dirty)
			if clean == 0 || dirty == 0 {
				t.Fatalf("the schedules read %d tuples on clean pages and %d on the others; both must be exercised", clean, dirty)
			}
		})
	}
}

// summaryQueries are the statements the schedule pins against the
// tree-walker: scans and aggregates, each with a WHERE that a bool predicate
// evaluates.
var summaryQueries = []string{
	`SELECT k, v FROM kv`,
	`SELECT k, v FROM kv WHERE v < 150 OR k > 40`,
	`SELECT k FROM kv WHERE v BETWEEN 100 AND 1100 AND k <> 7`,
	`SELECT COUNT(*), SUM(v) FROM kv`,
	`SELECT k / 10, COUNT(*), MAX(v) FROM kv WHERE v IS NOT NULL GROUP BY k / 10`,
	`SELECT v, COUNT(*), SUM(k), COUNT(v) FROM kv GROUP BY v`,
}

func summaryStore(t *testing.T, n int) (*Store, *VTable) {
	t.Helper()
	// 256-byte pages hold 8 kv tuples at n = 2 and 4 at n = 4.
	s, err := Open(db.Open(db.Options{PageSize: 256}), Options{N: n, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	vt, err := s.CreateTable(kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	return s, vt
}

// summarySchedule runs one seeded schedule and returns how many tuples the
// page hook saw on clean pages and on the others across its checks.
func summarySchedule(t *testing.T, n int, seed int64) (clean, dirty int) {
	s, vt := summaryStore(t, n)
	rng := rand.New(rand.NewSource(seed))
	const keys = 48
	present := make(map[int64]bool) // committed logical state
	check := func(step string) {
		t.Helper()
		c, d := checkSummary(t, s, vt, n, fmt.Sprintf("seed %d, %s", seed, step))
		clean, dirty = clean+c, dirty+d
	}
	for step := 0; step < 40; step++ {
		m := mustMaint(t, s)
		var err error
		live := make(map[int64]bool, len(present))
		for k, ok := range present {
			live[k] = ok
		}
		for op := 0; op < 1+rng.Intn(12); op++ {
			k := int64(rng.Intn(keys))
			key := catalog.Tuple{catalog.NewInt(k)}
			switch {
			case !live[k]:
				err = m.Insert("kv", kvTuple(k, 100+int64(rng.Intn(1000))))
				live[k] = true
			case rng.Intn(3) == 0:
				_, err = m.DeleteKey("kv", key)
				live[k] = false
			default:
				by := int64(rng.Intn(500))
				_, err = m.UpdateKey("kv", key, func(old catalog.Tuple) catalog.Tuple { return kvTuple(k, old[1].Int()+by) })
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			check(fmt.Sprintf("step %d op %d", step, op))
		}
		switch r := rng.Intn(4); {
		case r == 0:
			if err := m.Rollback(); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("step %d rollback", step))
		default:
			commit(t, m)
			present = live
			check(fmt.Sprintf("step %d commit", step))
		}
		if rng.Intn(3) == 0 {
			lo, _ := summaryWindow(s, n)
			s.GCWithFloor(lo)
			check(fmt.Sprintf("step %d GC at %d", step, lo))
		}
	}
	return clean, dirty
}

// summaryWindow is the versions a reader may hold: the n−1 newest committed
// ones, not below the store's expiry floor, and the open transaction's.
func summaryWindow(s *Store, n int) (lo, hi VN) {
	cur, active, floor := s.readGlobals()
	lo = max(1, cur-VN(n-2), floor)
	hi = cur
	if active {
		hi++
	}
	return lo, hi
}

// checkSummary runs the three checks of TestPageSummaryMatchesSelector at
// every vn in the window.
func checkSummary(t *testing.T, s *Store, vt *VTable, n int, where string) (clean, dirty int) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	e := vt.Ext()
	lo, hi := summaryWindow(s, n)
	for vn := lo; vn <= hi; vn++ {
		err := vt.Storage().ScanFilter(storage.Filter{
			Page: func(v storage.PageView, sel []int32) ([]int32, error) {
				for si := 0; si < v.Slots(); si++ {
					if !v.Live(si) {
						continue
					}
					j, visible := e.Slot(v.Tuple(si), vn)
					if v.Current(si) != (j == 0 && visible) {
						return sel, fmt.Errorf("tuple %v at %d reads slot %d, visible %v, and the version vector calls it current: %v", v.Tuple(si), vn, j, visible, v.Current(si))
					}
					if !v.Clean() {
						dirty++
						continue
					}
					clean++
					if j != 0 || !visible {
						return sel, fmt.Errorf("tuple %v on a page clean at %d reads slot %d, visible %v", v.Tuple(si), vn, j, visible)
					}
				}
				return sel, nil
			},
			VN: int64(vn),
		}, func([]storage.RID, []catalog.Tuple) bool { return true })
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		for _, q := range summaryQueries {
			sel, err := sql.ParseSelect(q)
			if err != nil {
				t.Fatal(err)
			}
			pe, err := s.selectPlan(sel, "")
			if err != nil {
				t.Fatal(err)
			}
			if !pe.plan.Vectorized() {
				t.Fatalf("%q is not a compiled plan", q)
			}
			got, gerr := planRows(s, pe, exec.Params{}, vn)
			want, werr := legacyAt(s, vn, sel, exec.Params{})
			if diff := sameAnswer(got, gerr, want, werr); diff != "" {
				t.Fatalf("%s, vn %d, %q: %s", where, vn, q, diff)
			}
			// The rewrite compiled without CompileOptions reads the stored
			// columns as they are, on clean pages too: ExecuteInto hands the
			// walker vn, so pages are clean for it as for the compiled plan.
			rw, err := RewriteSelect(s, sel)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := exec.CompileSelect(s.DB(), rw, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, gerr = exec.Collect(func(sink exec.Sink) error {
				return plain.ExecuteInto(s.DB(), withSessionVN(exec.Params{}, vn), int64(vn), sink)
			})
			if diff := sameAnswer(got, gerr, want, werr); diff != "" {
				t.Fatalf("%s, vn %d, %q compiled without options: %s", where, vn, q, diff)
			}
		}
	}
	return clean, dirty
}
