package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The differential suite: ApplyBatch must be observationally identical to
// the single-operation API (a loop of Insert, UpdateKey and DeleteKey) on the
// same deltas — equal physical tuples, equal per-cell Tables 2–4 counters,
// and equal reader-visible states at both the pre-batch sessionVN and the new
// currentVN. Batches are seeded-random with deliberate same-key multi-touch
// so the second rows of Tables 2–4 (the net-effect folds) are exercised on
// every seed.

// maintCellSeries are the registry series the suite compares one-for-one.
var maintCellSeries = []string{
	"core_maint_logical_inserts_total",
	"core_maint_logical_updates_total",
	"core_maint_logical_deletes_total",
	"core_maint_physical_inserts_total",
	"core_maint_physical_updates_total",
	"core_maint_physical_deletes_total",
	"core_maint_net_effect_folds_total",
	"core_maint_table2_row1_total",
	"core_maint_table2_row2_total",
	"core_maint_table2_row3_total",
	"core_maint_table3_row1_total",
	"core_maint_table3_row2_total",
	"core_maint_table4_row1_total",
	"core_maint_table4_row2_update_total",
	"core_maint_table4_row2_insert_total",
	"core_maint_table4_row2_insert_pop_total",
}

const (
	diffLiveKeys = 12 // preloaded live
	diffDeadKeys = 6  // preloaded then logically deleted (Table 2 row 1 bait)
	diffKeySpace = 24 // live + dead + never-seen
)

// diffStore builds a store on a private registry with the fixed preload:
// keys 0..17 inserted at VN 2, keys 12..17 logically deleted at VN 3.
// currentVN is 3 afterwards; the batch under test runs at VN 4.
func diffStore(t *testing.T, n int) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s := newStore(t, n, func(o *Options) { o.Metrics = reg })
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < diffLiveKeys+diffDeadKeys; k++ {
		if err := m.Insert("kv", kvTuple(k, 100+k)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	m = mustMaint(t, s)
	for k := int64(diffLiveKeys); k < diffLiveKeys+diffDeadKeys; k++ {
		if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(k)}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	return s, reg
}

// genDiffBatch produces a seeded batch of deltas that is legal to apply to
// the diffStore preload in submission order: the only illegal operation —
// insert of a live key — is avoided by tracking liveness as the batch
// folds. Updates and deletes of missing keys are legal skips and are
// generated on purpose. Every fourth draw emits a same-key pair so
// multi-touch (the Tables 2–4 second rows) occurs on every seed.
func genDiffBatch(rng *rand.Rand, ops int) []Delta {
	live := make(map[int64]bool)
	for k := int64(0); k < diffLiveKeys; k++ {
		live[k] = true
	}
	var out []Delta
	emit := func(k int64) {
		row := kvTuple(k, rng.Int63n(1_000_000))
		key := catalog.Tuple{catalog.NewInt(k)}
		if !live[k] {
			switch rng.Intn(4) {
			case 0, 1:
				out = append(out, Delta{Table: "kv", Op: DeltaInsert, Row: row})
				live[k] = true
			case 2:
				out = append(out, Delta{Table: "kv", Op: DeltaUpdate, Row: row, Key: key})
			default:
				out = append(out, Delta{Table: "kv", Op: DeltaDelete, Key: key})
			}
			return
		}
		switch rng.Intn(3) {
		case 0:
			out = append(out, Delta{Table: "kv", Op: DeltaUpdate, Row: row, Key: key})
		default:
			out = append(out, Delta{Table: "kv", Op: DeltaDelete, Key: key})
			live[k] = false
		}
	}
	for len(out) < ops {
		k := rng.Int63n(diffKeySpace)
		emit(k)
		if rng.Intn(4) == 0 {
			emit(k) // deliberate same-key multi-touch
		}
	}
	return out
}

// dumpPhysical renders the table's extended tuples, sorted, RID-free: the
// two paths may place tuples at different slots, but the tuple contents must
// match exactly.
func dumpPhysical(t *testing.T, s *Store) []string {
	t.Helper()
	vt, err := s.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	vt.Storage().Scan(func(_ storage.RID, tu catalog.Tuple) bool {
		out = append(out, tupleString(tu))
		return true
	})
	sort.Strings(out)
	return out
}

func tupleString(tu catalog.Tuple) string {
	parts := make([]string, len(tu))
	for i, v := range tu {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// dumpSession renders a session's reader-visible kv state, sorted.
func dumpSession(t *testing.T, sess *Session) []string {
	t.Helper()
	var out []string
	if err := sess.Scan("kv", func(tu catalog.Tuple) bool {
		out = append(out, tupleString(tu))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func dumpCells(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64, len(maintCellSeries))
	for _, name := range maintCellSeries {
		out[name] = reg.CounterValue(name)
	}
	return out
}

// diffRun is every observable the suite compares, from one run of the
// deltas on a fresh diffStore.
type diffRun struct {
	phys    []string
	oldScan []string
	newScan []string
	cells   map[string]int64
	bstats  BatchStats
	mstats  MaintStats
}

// applySingleOps is the oracle: the deltas as a loop of single operations,
// counted as ApplyBatch counts them.
func applySingleOps(m *Maintenance, deltas []Delta) (BatchStats, error) {
	st := BatchStats{Deltas: len(deltas)}
	for _, d := range deltas {
		ok := true
		var err error
		switch d.Op {
		case DeltaInsert:
			err = m.Insert(d.Table, d.Row)
		case DeltaUpdate:
			row := d.Row
			ok, err = m.UpdateKey(d.Table, d.Key, func(catalog.Tuple) catalog.Tuple { return row })
		case DeltaDelete:
			ok, err = m.DeleteKey(d.Table, d.Key)
		}
		if err != nil {
			return st, err
		}
		if ok {
			st.Applied++
		} else {
			st.Missing++
		}
	}
	return st, nil
}

// runDiff applies the deltas on a fresh store, through ApplyBatch or through
// the single-operation oracle, and returns every observable the suite
// compares.
func runDiff(t *testing.T, n int, deltas []Delta, batch bool) diffRun {
	t.Helper()
	s, reg := diffStore(t, n)
	old := s.BeginSession() // sessionVN = 3, spans the batch commit
	defer old.Close()
	m := mustMaint(t, s)
	apply, path := applySingleOps, "single operations"
	if batch {
		apply, path = (*Maintenance).ApplyBatch, "ApplyBatch"
	}
	bstats, err := apply(m, deltas)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	mstats := m.Stats()
	commit(t, m)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after %s: %v", path, err)
	}
	if got, want := reg.CounterValue("core_maint_batch_deltas_total"), int64(len(deltas)); batch && got != want {
		t.Errorf("core_maint_batch_deltas_total = %d, want %d", got, want)
	}
	now := s.BeginSession() // sessionVN = 4, the batch's result
	defer now.Close()
	return diffRun{
		phys:    dumpPhysical(t, s),
		oldScan: dumpSession(t, old),
		newScan: dumpSession(t, now),
		cells:   dumpCells(reg),
		bstats:  bstats,
		mstats:  mstats,
	}
}

func compareDiffRuns(t *testing.T, oracle, batch diffRun) {
	t.Helper()
	if oracle.bstats != batch.bstats {
		t.Errorf("BatchStats diverge: single operations %+v, ApplyBatch %+v", oracle.bstats, batch.bstats)
	}
	if oracle.mstats != batch.mstats {
		t.Errorf("MaintStats diverge:\nsingle operations %+v\nApplyBatch        %+v", oracle.mstats, batch.mstats)
	}
	for _, name := range maintCellSeries {
		if oracle.cells[name] != batch.cells[name] {
			t.Errorf("counter %s diverges: single operations %d, ApplyBatch %d", name, oracle.cells[name], batch.cells[name])
		}
	}
	compareDump(t, "physical tuples", oracle.phys, batch.phys)
	compareDump(t, "pre-batch session scan", oracle.oldScan, batch.oldScan)
	compareDump(t, "post-batch session scan", oracle.newScan, batch.newScan)
}

func compareDump(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s diverge: %d vs %d rows", what, len(want), len(got))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s diverge at row %d:\nwant: %s\ngot:  %s", what, i, want[i], got[i])
			return
		}
	}
}

// TestParallelBatchMatchesSequentialOracle is the differential property
// test: 200 seeds per version depth, each batch applied through ApplyBatch
// and through the sequential oracle, a loop of single operations. (The name
// predates the batch's single apply path.)
func TestParallelBatchMatchesSequentialOracle(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(n)*10_000 + int64(seed)))
				deltas := genDiffBatch(rng, 50)
				oracle := runDiff(t, n, deltas, false)
				batch := runDiff(t, n, deltas, true)
				if t.Failed() {
					t.Fatalf("seed %d diverged before comparison", seed)
				}
				compareDiffRuns(t, oracle, batch)
				if t.Failed() {
					t.Fatalf("seed %d diverged", seed)
				}
			}
		})
	}
}

// TestParallelBatchLargeKeyspace runs the same comparison on a larger batch
// over a wider key range, with 500 random keys deleted and re-inserted in one
// batch.
func TestParallelBatchLargeKeyspace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var deltas []Delta
	for k := int64(100); k < 1100; k++ {
		deltas = append(deltas, Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(k, rng.Int63n(1000))})
	}
	for i := 0; i < 500; i++ {
		k := 100 + rng.Int63n(1000)
		if rng.Intn(2) == 0 {
			deltas = append(deltas, Delta{Table: "kv", Op: DeltaUpdate, Row: kvTuple(k, rng.Int63n(1000)), Key: catalog.Tuple{catalog.NewInt(k)}})
		} else {
			deltas = append(deltas, Delta{Table: "kv", Op: DeltaDelete, Key: catalog.Tuple{catalog.NewInt(k)}})
			deltas = append(deltas, Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(k, rng.Int63n(1000))})
		}
	}
	compareDiffRuns(t, runDiff(t, 2, deltas, false), runDiff(t, 2, deltas, true))
}

// freshInserts is a batch of n inserts of keys no diffStore holds.
func freshInserts(n int) []Delta {
	var deltas []Delta
	for k := int64(100); k < int64(100+n); k++ {
		deltas = append(deltas, Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(k, k*10)})
	}
	return deltas
}

// TestBatchErrorPoisonsTransaction: a delta that fails part-way through a
// batch must poison the transaction — Commit refuses, further batches
// refuse — and Rollback must restore the exact pre-batch state, undoing the
// deltas the batch applied before the failure.
func TestBatchErrorPoisonsTransaction(t *testing.T) {
	s, _ := diffStore(t, 2)
	before := dumpPhysical(t, s)

	m := mustMaint(t, s)
	deltas := freshInserts(8)
	// Insert of a live key is the one illegal batch operation; plant it
	// mid-batch, after four inserts have applied.
	deltas[len(deltas)/2] = Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(0, 999)}
	if _, err := m.ApplyBatch(deltas); !errors.Is(err, ErrInvalidMaintenanceOp) {
		t.Fatalf("poisoning batch: err = %v, want ErrInvalidMaintenanceOp", err)
	}
	if err := m.Commit(); err == nil || !errors.Is(err, ErrInvalidMaintenanceOp) {
		t.Fatalf("Commit after poisoned batch: err = %v, want refusal wrapping ErrInvalidMaintenanceOp", err)
	}
	if _, err := m.ApplyBatch(nil); err == nil {
		t.Fatal("ApplyBatch after poisoned batch succeeded")
	}
	if err := m.Rollback(); err != nil {
		t.Fatalf("Rollback after poisoned batch: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	compareDump(t, "physical tuples after poisoned rollback", before, dumpPhysical(t, s))
	// The store must be fully usable again.
	m2 := mustMaint(t, s)
	if _, err := m2.ApplyBatch(freshInserts(4)); err != nil {
		t.Fatalf("batch after recovery from poison: %v", err)
	}
	commit(t, m2)
}

// TestBatchKeylessRules: keyless tables accept batched inserts but reject
// batched updates/deletes, which have no key to name their target. A
// rejected delta, like an unknown operation, refuses the whole batch before
// its first write, and the transaction stays committable.
func TestBatchKeylessRules(t *testing.T) {
	s := newStore(t, 2)
	schema := catalog.MustSchema("plain", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Length: 8},
		{Name: "b", Type: catalog.TypeInt, Length: 8, Updatable: true},
	})
	if _, err := s.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	var deltas []Delta
	for i := int64(0); i < 16; i++ {
		deltas = append(deltas, Delta{Table: "plain", Op: DeltaInsert, Row: kvTuple(i, i)})
	}
	st, err := m.ApplyBatch(deltas)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 16 {
		t.Fatalf("applied %d keyless inserts, want 16", st.Applied)
	}
	insert := Delta{Table: "plain", Op: DeltaInsert, Row: kvTuple(99, 99)}
	for _, bad := range []Delta{
		{Table: "plain", Op: DeltaDelete, Key: kvTuple(1, 1)},
		{Table: "plain", Op: DeltaUpdate, Row: kvTuple(1, 2), Key: kvTuple(1, 1)},
		{Table: "plain", Op: DeltaOp(7), Row: kvTuple(1, 2)},
	} {
		if _, err := m.ApplyBatch([]Delta{insert, bad}); err == nil {
			t.Fatalf("batch with a %s of a keyless table succeeded", bad.Op)
		}
	}
	commit(t, m)
	vt, _ := s.Table("plain")
	if vt.Len() != 16 {
		t.Fatalf("keyless table has %d tuples, want 16", vt.Len())
	}
}
