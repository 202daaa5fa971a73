package core

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/storage"
)

// onlineFeed generates maintenance batches of the `online` workload's shape
// over factStore's table: per batch 1 408 updates (128 of them second touches
// of an id already updated), 256 inserts above the live ids, 256 deletes of
// the oldest ones and 64 insert-then-delete pairs of fresh ids, 2 048 deltas
// in all. The live ids are always [lo, hi).
type onlineFeed struct {
	rng           *rand.Rand
	lo, hi, fresh int64
}

func newOnlineFeed(rows int64) *onlineFeed {
	return &onlineFeed{rng: rand.New(rand.NewSource(1)), hi: rows, fresh: 1 << 40}
}

func (f *onlineFeed) row(id int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(id), catalog.NewInt(id % 64), catalog.NewInt(f.rng.Int63n(100) + 1), catalog.NewInt(f.rng.Int63n(100000))}
}

func (f *onlineFeed) next() []Delta {
	const updates, retouch, inserts, deletes, pairs = 1408, 128, 256, 256, 64
	key := func(id int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(id)} }
	var ds []Delta
	seen := make(map[int64]bool, updates)
	var first []int64
	for len(first) < updates-retouch {
		id := f.lo + deletes + f.rng.Int63n(f.hi-f.lo-deletes)
		if !seen[id] {
			seen[id] = true
			first = append(first, id)
			ds = append(ds, Delta{Table: "fact", Op: DeltaUpdate, Row: f.row(id), Key: key(id)})
		}
	}
	for i := 0; i < retouch; i++ {
		id := first[f.rng.Intn(len(first))]
		ds = append(ds, Delta{Table: "fact", Op: DeltaUpdate, Row: f.row(id), Key: key(id)})
	}
	for i := int64(0); i < inserts; i++ {
		ds = append(ds, Delta{Table: "fact", Op: DeltaInsert, Row: f.row(f.hi + i)})
	}
	for i := int64(0); i < deletes; i++ {
		ds = append(ds, Delta{Table: "fact", Op: DeltaDelete, Key: key(f.lo + i)})
	}
	for i := 0; i < pairs; i++ {
		ds = append(ds, Delta{Table: "fact", Op: DeltaInsert, Row: f.row(f.fresh)},
			Delta{Table: "fact", Op: DeltaDelete, Key: key(f.fresh)})
		f.fresh++
	}
	f.lo += deletes
	f.hi += inserts
	return ds
}

// pageMix counts, at version vn, vt's pages, the clean ones among them, its
// live slots and the current ones among them (storage.PageView).
func pageMix(t testing.TB, vt *VTable, vn VN) (pages, clean, slots, current int) {
	t.Helper()
	err := vt.Storage().ScanFilter(storage.Filter{
		Page: func(v storage.PageView, sel []int32) ([]int32, error) {
			pages++
			if v.Clean() {
				clean++
			}
			for si := 0; si < v.Slots(); si++ {
				if v.Live(si) {
					slots++
					if v.Current(si) {
						current++
					}
				}
			}
			return sel, nil
		},
		VN: int64(vn),
	}, func([]storage.RID, []catalog.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return pages, clean, slots, current
}

// The page mix an `online` reader meets: factStore under online-shaped
// batches, GC after every 8th, with a session pinned before an open batch,
// as a reader holds one while the next batch applies. Nearly every page is
// dirty at the session's version, since each batch updates about 7 tuples
// on every page, but most live slots are current there: only the tuples the
// open batch wrote and the deletions GC has not yet removed are not. That is
// the premise of reading current slots from the page image on dirty pages,
// so the test fails when fewer than half the slots are current. The GROUP BY
// the workload runs answers as the tree-walker over the §4.1 rewrite.
func TestOnlinePageMix(t *testing.T) {
	const rows = 16384
	s := factStore(t, rows)
	vt, err := s.Table("fact")
	if err != nil {
		t.Fatal(err)
	}
	f := newOnlineFeed(rows)
	for b := 1; b <= 12; b++ {
		m := mustMaint(t, s)
		if _, err := m.ApplyBatch(f.next()); err != nil {
			t.Fatal(err)
		}
		commit(t, m)
		if b%8 == 0 {
			s.GC()
		}
	}
	sess := s.BeginSession()
	defer sess.Close()
	m := mustMaint(t, s)
	defer func() {
		if err := m.Rollback(); err != nil {
			t.Fatal(err)
		}
	}()
	if _, err := m.ApplyBatch(f.next()); err != nil {
		t.Fatal(err)
	}
	pages, clean, slots, current := pageMix(t, vt, sess.VN())
	share := float64(current) / float64(slots)
	t.Logf("at the session's version: %d of %d pages clean (%.1f %%), %d of %d live slots current (%.1f %%)",
		clean, pages, 100*float64(clean)/float64(pages), current, slots, 100*share)
	if share < 0.5 {
		t.Errorf("%.1f %% of live slots are current at the session's version; the typed fold's premise is at least half", 100*share)
	}
	q := mustParse(t, `SELECT grp, COUNT(*), SUM(amount) FROM fact GROUP BY grp`)
	got, gerr := sess.QueryStmt(q, nil)
	want, werr := legacyAt(s, sess.VN(), q, nil)
	if diff := sameAnswer(got, gerr, want, werr); diff != "" {
		t.Fatal(diff)
	}
}

// onlineDirty makes factStore's table, of rows tuples, what an `online`
// reader meets, in one step: a committed transaction deletes every 61st id,
// so each page holds a deletion GC has not removed; then a session begins;
// then an open transaction rewrites the amount of every 8th id. Every page is
// dirty at the session's version, and the deleted and rewritten tuples are
// the only slots not current there. The caller rolls the transaction back.
func onlineDirty(t testing.TB, s *Store, rows int64) (*Session, *Maintenance) {
	t.Helper()
	m := mustMaint(t, s)
	for id := int64(0); id < rows; id += 61 {
		if _, err := m.DeleteKey("fact", catalog.Tuple{catalog.NewInt(id)}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	sess := s.BeginSession()
	m = mustMaint(t, s)
	for id := int64(3); id < rows; id += 8 {
		_, err := m.UpdateKey("fact", catalog.Tuple{catalog.NewInt(id)}, func(old catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{old[0], old[1], old[2], catalog.NewInt(old[3].Int() + 1)}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return sess, m
}

// The allocation pin for the `online` statement over 16 384 rows on pages
// clean at the session's version: the typed fold reads each page's image
// and finds each group through the window, so what is left is the context,
// the group table's growth and the result. It allocated 35 times a query
// while groups were found through a Go map. The limit leaves a little room;
// raising it needs a reason.
func TestPreparedGroupByAllocations(t *testing.T) {
	s := factStore(t, 16384)
	p, err := s.Prepare(`SELECT grp, COUNT(*), SUM(amount) FROM fact GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession()
	defer sess.Close()
	allocs := testing.AllocsPerRun(10, func() {
		rows, err := sess.QueryPrepared(p, exec.Params{})
		if err != nil || rows.Len() != 64 {
			t.Fatalf("rows=%v err=%v", rows.Len(), err)
		}
	})
	t.Logf("%.1f allocations per GROUP BY of 16384 rows", allocs)
	if allocs > 28 {
		t.Errorf("%.1f allocations per GROUP BY of 16384 rows; the limit is 28", allocs)
	}
}
