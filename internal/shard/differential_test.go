package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
)

// The differential suite proves the sharded store observationally identical
// to one core.Store: every (shard count, seed) pair replays an identical
// randomized delta history — net-effect triples, re-inserts over deletes,
// missing-key skips, multi-touch cells — through a router and through a
// single-store oracle, and after every publish compares full scans, point
// gets, routed and fanned-out queries, merged batch stats, and a reader
// pinned one epoch back (whose back-versions live on different shards than
// the oracle's single heap).

func diffDim() *catalog.Schema {
	return catalog.MustSchema("dim", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
		{Name: "note", Type: catalog.TypeString, Length: 16, Updatable: true},
	}, "k")
}

func diffFact() *catalog.Schema {
	return catalog.MustSchema("fact", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "qty", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
}

func diffRow(table string, k, v int64) catalog.Tuple {
	if table == "dim" {
		return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v), catalog.NewString(fmt.Sprintf("s%d", v%7))}
	}
	return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)}
}

func diffKey(k int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k)} }

// scanAll drains one table through any scanner into key → row-string form.
type scanner interface {
	Scan(table string, fn func(catalog.Tuple) bool) error
}

func scanAll(t *testing.T, s scanner, table string) map[int64]string {
	t.Helper()
	out := map[int64]string{}
	if err := s.Scan(table, func(b catalog.Tuple) bool {
		out[b[0].Int()] = b.String()
		return true
	}); err != nil {
		t.Fatalf("scan %s: %v", table, err)
	}
	return out
}

func compareScans(t *testing.T, label, table string, got, want map[int64]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d rows on shards, %d on oracle", label, table, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("%s: %s key %d: shards %q, oracle %q", label, table, k, got[k], w)
		}
	}
}

// genBatch builds one randomized delta batch against the live-key model.
// It deliberately includes the paper's hard cases: repeated updates to one
// cell, an insert+update+delete net-effect triple (a pop that must vanish
// on whatever shard the fresh key hashes to), re-inserts of previously
// deleted keys, and update/delete of absent keys (counted, not applied).
func genBatch(rng *rand.Rand, live map[string]map[int64]int64, next *int64) []core.Delta {
	var out []core.Delta
	tables := []string{"dim", "fact"}
	n := 6 + rng.Intn(10)
	for i := 0; i < n; i++ {
		table := tables[rng.Intn(len(tables))]
		rows := live[table]
		switch op := rng.Intn(10); {
		case op < 4 || len(rows) == 0: // insert a fresh key
			*next++
			k, v := *next, rng.Int63n(1000)
			out = append(out, core.Delta{Table: table, Op: core.DeltaInsert, Row: diffRow(table, k, v)})
			rows[k] = v
		case op < 7: // update an existing (or, sometimes, absent) key
			k := pickKey(rng, rows)
			if rng.Intn(5) == 0 {
				k = 1_000_000 + rng.Int63n(100) // absent: Missing on both sides
			}
			v := rng.Int63n(1000)
			out = append(out, core.Delta{Table: table, Op: core.DeltaUpdate, Row: diffRow(table, k, v), Key: diffKey(k)})
			if _, ok := rows[k]; ok {
				rows[k] = v
			}
		case op < 9: // delete an existing (or absent) key
			k := pickKey(rng, rows)
			if rng.Intn(5) == 0 {
				k = 1_000_000 + rng.Int63n(100)
			}
			out = append(out, core.Delta{Table: table, Op: core.DeltaDelete, Key: diffKey(k)})
			delete(rows, k)
		default: // net-effect triple on a fresh key
			*next++
			k := *next
			out = append(out,
				core.Delta{Table: table, Op: core.DeltaInsert, Row: diffRow(table, k, 1)},
				core.Delta{Table: table, Op: core.DeltaUpdate, Row: diffRow(table, k, 2), Key: diffKey(k)},
				core.Delta{Table: table, Op: core.DeltaDelete, Key: diffKey(k)},
			)
		}
	}
	// Occasionally re-insert a key deleted in some earlier batch: fresh keys
	// are monotone, so any gap below *next is a candidate.
	if rng.Intn(3) == 0 && *next > 4 {
		k := 1 + rng.Int63n(*next)
		table := tables[rng.Intn(len(tables))]
		if _, ok := live[table][k]; !ok {
			v := rng.Int63n(1000)
			out = append(out, core.Delta{Table: table, Op: core.DeltaInsert, Row: diffRow(table, k, v)})
			live[table][k] = v
		}
	}
	return out
}

func pickKey(rng *rand.Rand, rows map[int64]int64) int64 {
	if len(rows) == 0 {
		return 1
	}
	ks := make([]int64, 0, len(rows))
	for k := range rows {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks[rng.Intn(len(ks))]
}

// oracleApply runs one maintenance batch on the single-store oracle.
func oracleApply(t *testing.T, st *core.Store, deltas []core.Delta) core.BatchStats {
	t.Helper()
	m, err := st.BeginMaintenance()
	if err != nil {
		t.Fatalf("oracle BeginMaintenance: %v", err)
	}
	stats, err := m.ApplyBatch(deltas)
	if err != nil {
		t.Fatalf("oracle ApplyBatch: %v", err)
	}
	if err := m.Commit(); err != nil {
		t.Fatalf("oracle Commit: %v", err)
	}
	return stats
}

func sortedRows(rows [][]catalog.Tuple) []string {
	var out []string
	for _, set := range rows {
		for _, tup := range set {
			out = append(out, tup.String())
		}
	}
	sort.Strings(out)
	return out
}

func runDifferential(t *testing.T, shards, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r, err := Open(Options{Shards: shards, N: n})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	oracle, err := core.Open(db.Open(db.Options{}), core.Options{N: n})
	if err != nil {
		t.Fatalf("oracle Open: %v", err)
	}
	for _, mk := range []func() *catalog.Schema{diffDim, diffFact} {
		if err := r.CreateTable(mk()); err != nil {
			t.Fatalf("router CreateTable: %v", err)
		}
		if _, err := oracle.CreateTable(mk()); err != nil {
			t.Fatalf("oracle CreateTable: %v", err)
		}
	}

	live := map[string]map[int64]int64{"dim": {}, "fact": {}}
	var next int64
	epochs := 5 + rng.Intn(4)
	for epoch := 0; epoch < epochs; epoch++ {
		deltas := genBatch(rng, live, &next)

		// A reader pinned at the pre-batch epoch on both sides: after the
		// publish it must still see the old version, reassembled from nVNL
		// back-versions scattered across shards.
		oldShard, err := r.BeginSession()
		if err != nil {
			t.Fatalf("epoch %d: BeginSession: %v", epoch, err)
		}
		oldOracle := oracle.BeginSession()

		vn, stats, err := r.ApplyBatch(deltas)
		if err != nil {
			t.Fatalf("epoch %d: router ApplyBatch: %v", epoch, err)
		}
		ostats := oracleApply(t, oracle, deltas)
		if ovn := oracle.CurrentVN(); vn != ovn {
			t.Fatalf("epoch %d: router at VN %d, oracle at %d", epoch, vn, ovn)
		}
		if stats.Applied != ostats.Applied || stats.Missing != ostats.Missing {
			t.Fatalf("epoch %d: stats diverge: shards applied=%d missing=%d, oracle applied=%d missing=%d",
				epoch, stats.Applied, stats.Missing, ostats.Applied, ostats.Missing)
		}

		label := fmt.Sprintf("shards=%d seed=%d epoch=%d", shards, seed, epoch)
		for _, table := range []string{"dim", "fact"} {
			compareScans(t, label+" (old pin)", table, scanAll(t, oldShard, table), scanAll(t, oldOracle, table))
		}
		oldShard.Close()
		oldOracle.Close()

		sess, err := r.BeginSession()
		if err != nil {
			t.Fatalf("%s: BeginSession: %v", label, err)
		}
		osess := oracle.BeginSession()
		if sess.VN() != osess.VN() {
			t.Fatalf("%s: session VNs diverge: %d vs %d", label, sess.VN(), osess.VN())
		}
		for _, table := range []string{"dim", "fact"} {
			compareScans(t, label, table, scanAll(t, sess, table), scanAll(t, osess, table))

			// Point gets through the hash route, over present and absent keys.
			for i := 0; i < 3; i++ {
				k := 1 + rng.Int63n(next+1)
				gt, gok, gerr := sess.Get(table, diffKey(k))
				wt, wok, werr := osess.Get(table, diffKey(k))
				if (gerr == nil) != (werr == nil) || gok != wok {
					t.Fatalf("%s: Get(%s,%d) diverges: (%v,%v) vs (%v,%v)", label, table, k, gok, gerr, wok, werr)
				}
				if gok && gt.String() != wt.String() {
					t.Fatalf("%s: Get(%s,%d): shards %q, oracle %q", label, table, k, gt.String(), wt.String())
				}
			}
		}

		// A single-shard routed query and a full fan-out, against the oracle's
		// answers as unordered row multisets.
		k := 1 + rng.Int63n(next+1)
		for _, q := range []string{
			fmt.Sprintf("SELECT * FROM dim WHERE k = %d", k),
			"SELECT k, v FROM dim WHERE v > 500 LIMIT 1000000",
		} {
			grows, gerr := sess.Query(q, nil)
			wrows, werr := osess.Query(q, nil)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: query %q error diverges: %v vs %v", label, q, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			got := sortedRows([][]catalog.Tuple{grows.Tuples})
			want := sortedRows([][]catalog.Tuple{wrows.Tuples})
			if len(got) != len(want) {
				t.Fatalf("%s: query %q: %d rows on shards, %d on oracle", label, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: query %q row %d: shards %q, oracle %q", label, q, i, got[i], want[i])
				}
			}
		}
		checkFanoutLimits(t, label, sess, osess)
		sess.Close()
		osess.Close()

		// Mid-history GC on both sides must not change any visible state.
		if epoch == epochs/2 {
			for _, gcs := range r.GC() {
				if gcs.Err != nil {
					t.Fatalf("%s: shard GC: %v", label, gcs.Err)
				}
			}
			if gcs := oracle.GC(); gcs.Err != nil {
				t.Fatalf("%s: oracle GC: %v", label, gcs.Err)
			}
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("router invariants: %v", err)
	}
	if err := oracle.CheckInvariants(); err != nil {
		t.Fatalf("oracle invariants: %v", err)
	}
}

// TestShardDifferential is the 200-seed arsenal: shard widths 1, 2, 4, and
// a prime 7 (so no batch ever splits evenly), 50 seeds each, every run
// diffed against the single-store oracle after every publish.
func TestShardDifferential(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 5
	}
	for _, shards := range []int{1, 2, 4, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				runDifferential(t, shards, 2, int64(seed))
			}
		})
	}
}

// TestShardDifferentialNVNL repeats a slice of the arsenal with n=4
// back-versions, where a reader can sit several epochs behind and its
// versions live in longer per-shard chains.
func TestShardDifferentialNVNL(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				runDifferential(t, shards, 4, int64(100+seed))
			}
		})
	}
}

// checkFanoutLimits runs a fan-out at LIMIT 0, at a LIMIT below the first
// shard's row count and at one above the total: any LIMIT rows satisfy a
// statement without ORDER BY, so each must answer the oracle's columns and
// min(LIMIT, total) distinct rows of the oracle's unlimited answer.
func checkFanoutLimits(t *testing.T, label string, sess *Session, osess *core.Session) {
	t.Helper()
	const full = "SELECT k, v FROM dim WHERE v > 300"
	all, err := osess.Query(full, nil)
	if err != nil {
		t.Fatalf("%s: oracle %q: %v", label, full, err)
	}
	first, err := sess.sess[0].Query(full, nil)
	if err != nil {
		t.Fatalf("%s: shard 0 %q: %v", label, full, err)
	}
	want := map[string]bool{}
	for _, row := range all.Tuples {
		want[row.String()] = true
	}
	for _, limit := range []int{0, len(first.Tuples) / 2, len(all.Tuples) + 3} {
		q := fmt.Sprintf("%s LIMIT %d", full, limit)
		got, err := sess.Query(q, nil)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, q, err)
		}
		if fmt.Sprint(got.Columns) != fmt.Sprint(all.Columns) || len(got.Tuples) != min(limit, len(all.Tuples)) {
			t.Fatalf("%s: %q: %v and %d rows, want %v and %d", label, q, got.Columns, len(got.Tuples), all.Columns, min(limit, len(all.Tuples)))
		}
		seen := map[string]bool{}
		for _, row := range got.Tuples {
			if !want[row.String()] || seen[row.String()] {
				t.Fatalf("%s: %q: row %s is not one of the oracle's, or repeats", label, q, row)
			}
			seen[row.String()] = true
		}
	}
}
