package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/storage"
)

// kvSchema is a minimal keyed schema: k (key), v (updatable).
func kvSchema() *catalog.Schema {
	return catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
}

func kvTuple(k, v int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)}
}

// planAsOf reads table at version s as every session query does — through
// the store's cached plan for SELECT *, which picks each stored tuple's
// version slot with ExtTable.Slot — without a session or its expiry checks.
func planAsOf(t *testing.T, s *Store, table string, vn VN) *exec.Rows {
	t.Helper()
	e, err := s.selectPlan(mustParse(t, "SELECT * FROM "+table), "")
	if err != nil {
		t.Fatal(err)
	}
	if !e.plan.Vectorized() {
		t.Fatalf("SELECT * FROM %s is not a compiled plan", table)
	}
	rows, err := planRows(s, e, nil, vn)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestTable1Exhaustive enumerates every cell of Table 1: for each recorded
// operation and each relation of sessionVN to tupleVN, the reader must
// extract the right version (or ignore the tuple, or report expiration) —
// through ReadAsOf and through a compiled plan alike.
func TestTable1Exhaustive(t *testing.T) {
	ext, err := ExtendSchema(kvSchema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const tvn = VN(5)
	mkTuple := func(op Op, cur, pre int64) catalog.Tuple {
		tu := make(catalog.Tuple, len(ext.Ext.Columns))
		for i := range tu {
			tu[i] = catalog.Null
		}
		ext.SetSlot(tu, 1, tvn, op)
		ext.SetBaseValues(tu, kvTuple(1, cur))
		if op == OpInsert {
			ext.SetPreValues(tu, 1, ext.NullPre())
		} else {
			ext.SetPreValues(tu, 1, catalog.Tuple{catalog.NewInt(pre)})
		}
		return tu
	}
	cases := []struct {
		op      Op
		s       VN
		visible bool
		value   int64 // when visible
		expired bool
	}{
		// Current version (sessionVN >= tupleVN).
		{OpInsert, tvn, true, 100, false},
		{OpInsert, tvn + 3, true, 100, false},
		{OpUpdate, tvn, true, 100, false},
		{OpDelete, tvn, false, 0, false}, // ignore tuple
		// Pre-update version (sessionVN = tupleVN − 1).
		{OpInsert, tvn - 1, false, 0, false}, // ignore tuple
		{OpUpdate, tvn - 1, true, 50, false}, // read pre-update values
		{OpDelete, tvn - 1, true, 50, false}, // read pre-delete values
		// Expired (sessionVN < tupleVN − 1).
		{OpInsert, tvn - 2, false, 0, true},
		{OpUpdate, tvn - 2, false, 0, true},
		{OpDelete, tvn - 2, false, 0, true},
	}
	for _, c := range cases {
		tu := mkTuple(c.op, 100, 50)
		base, visible, err := ext.ReadAsOf(tu, c.s)
		name := fmt.Sprintf("op=%s s=%d tvn=%d", c.op, c.s, tvn)
		if c.expired {
			if !errors.Is(err, ErrSessionExpired) {
				t.Errorf("%s: err = %v, want ErrSessionExpired", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// The same tuple, stored alone, read by the compiled plan.
		s := newStore(t, 2)
		vt, err := s.CreateTable(kvSchema())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vt.Storage().Insert(tu); err != nil {
			t.Fatal(err)
		}
		var planned catalog.Tuple
		if rows := planAsOf(t, s, "kv", c.s); rows.Len() > 0 {
			planned = rows.Tuples[0]
		}
		for path, got := range map[string]catalog.Tuple{"ReadAsOf": base, "plan": planned} {
			if (got != nil) != c.visible {
				t.Errorf("%s: %s: visible = %v, want %v", name, path, got != nil, c.visible)
				continue
			}
			if got == nil {
				continue
			}
			if v := got[1].Int(); v != c.value {
				t.Errorf("%s: %s: v = %d, want %d", name, path, v, c.value)
			}
			// Non-updatable attributes always come from the current
			// values (Table 1's note).
			if got[0].Int() != 1 {
				t.Errorf("%s: %s: non-updatable k = %v", name, path, got[0])
			}
		}
		if visible != (base != nil) {
			t.Errorf("%s: ReadAsOf visible = %v with base %v", name, visible, base)
		}
	}
}

// TestTable2Cells drives the insert decision table: fresh insert, conflict
// with an earlier delete, conflict with a same-transaction delete, and the
// impossible cells.
func TestTable2Cells(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	vt, _ := s.Table("kv")
	e := vt.Ext()

	slot1 := func(k int64) (VN, Op, string, int64) {
		rid, ok := vt.Storage().SearchKey(catalog.Tuple{catalog.NewInt(k)})
		if !ok {
			t.Fatalf("key %d not found", k)
		}
		tu, _ := vt.Storage().Get(rid)
		return e.TupleVN(tu, 1), e.OpAt(tu, 1), e.PreValues(tu, 1)[0].String(), e.BaseValues(tu)[1].Int()
	}

	// Row 3: no conflicting tuple → physical insert.
	m := mustMaint(t, s) // VN 2
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.PhysicalInserts != 1 {
		t.Errorf("fresh insert physical ops: %+v", st)
	}
	// Impossible: insert a key this transaction just inserted.
	if err := m.Insert("kv", kvTuple(1, 11)); !errors.Is(err, ErrInvalidMaintenanceOp) {
		t.Errorf("insert over live same-txn key: %v", err)
	}
	// Row 2: delete then insert in the same transaction → net update...
	// except the tuple was inserted in this same transaction, so the
	// delete is physical and the re-insert is fresh (net: insert).
	if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvTuple(1, 12)); err != nil {
		t.Fatal(err)
	}
	if tvn, op, _, v := slot1(1); tvn != 2 || op != OpInsert || v != 12 {
		t.Errorf("insert/delete/insert same txn: (%d, %s, v=%d), want (2, insert, 12)", tvn, op, v)
	}
	commit(t, m)

	// Delete by an earlier transaction, then insert: Table 2 row 1.
	m = mustMaint(t, s) // VN 3
	if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	m = mustMaint(t, s) // VN 4
	if err := m.Insert("kv", kvTuple(1, 40)); err != nil {
		t.Fatalf("insert over earlier delete (row 1): %v", err)
	}
	if tvn, op, pre, v := slot1(1); tvn != 4 || op != OpInsert || pre != "null" || v != 40 {
		t.Errorf("row 1 result: (%d, %s, pre=%s, v=%d), want (4, insert, null, 40)", tvn, op, pre, v)
	}
	// Impossible: insert over a live key updated earlier (simulate with
	// another key).
	if err := m.Insert("kv", kvTuple(2, 20)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	m = mustMaint(t, s) // VN 5
	if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(2)}, func(c catalog.Tuple) catalog.Tuple {
		c[1] = catalog.NewInt(21)
		return c
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvTuple(2, 22)); !errors.Is(err, ErrInvalidMaintenanceOp) {
		t.Errorf("insert over updated live key: %v", err)
	}
	// Row 2 proper: delete (of a pre-existing tuple) then insert in the
	// same transaction nets to update, preserving the pre-transaction
	// value in the pre-update attributes.
	if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kvTuple(2, 25)); err != nil {
		t.Fatal(err)
	}
	if tvn, op, pre, v := slot1(2); tvn != 5 || op != OpUpdate || pre != "20" || v != 25 {
		t.Errorf("row 2 result: (%d, %s, pre=%s, v=%d), want (5, update, 20, 25)", tvn, op, pre, v)
	}
	commit(t, m)
}

// TestTable3And4Cells drives the update and delete decision tables,
// including net effects and impossible cells.
func TestTable3And4Cells(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	vt, _ := s.Table("kv")
	e := vt.Ext()
	key := catalog.Tuple{catalog.NewInt(1)}
	slot1 := func() (VN, Op, string, int64) {
		rid, ok := vt.Storage().SearchKey(key)
		if !ok {
			return 0, OpNone, "", 0
		}
		tu, _ := vt.Storage().Get(rid)
		return e.TupleVN(tu, 1), e.OpAt(tu, 1), e.PreValues(tu, 1)[0].String(), e.BaseValues(tu)[1].Int()
	}
	setV := func(v int64) func(catalog.Tuple) catalog.Tuple {
		return func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(v); return c }
	}

	m := mustMaint(t, s) // VN 2
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Table 3 row 2 (prev insert, same txn): CV ← MV, op stays insert.
	if _, err := m.UpdateKey("kv", key, setV(11)); err != nil {
		t.Fatal(err)
	}
	if tvn, op, pre, v := slot1(); tvn != 2 || op != OpInsert || pre != "null" || v != 11 {
		t.Errorf("update of same-txn insert: (%d, %s, %s, %d), want (2, insert, null, 11)", tvn, op, pre, v)
	}
	commit(t, m)

	m = mustMaint(t, s) // VN 3
	// Table 3 row 1 (prev insert, earlier txn): PV ← CV, CV ← MV.
	if _, err := m.UpdateKey("kv", key, setV(30)); err != nil {
		t.Fatal(err)
	}
	if tvn, op, pre, v := slot1(); tvn != 3 || op != OpUpdate || pre != "11" || v != 30 {
		t.Errorf("first update: (%d, %s, %s, %d), want (3, update, 11, 30)", tvn, op, pre, v)
	}
	// Table 3 row 2 (prev update, same txn): CV ← MV only — PV keeps the
	// pre-transaction value so readers aren't shown a mid-transaction
	// state.
	if _, err := m.UpdateKey("kv", key, setV(31)); err != nil {
		t.Fatal(err)
	}
	if tvn, op, pre, v := slot1(); tvn != 3 || op != OpUpdate || pre != "11" || v != 31 {
		t.Errorf("second update same txn: (%d, %s, %s, %d), want (3, update, 11, 31)", tvn, op, pre, v)
	}
	// Table 4 row 2 (prev update, same txn): op ← delete, PV untouched.
	if _, err := m.DeleteKey("kv", key); err != nil {
		t.Fatal(err)
	}
	if tvn, op, pre, v := slot1(); tvn != 3 || op != OpDelete || pre != "11" || v != 31 {
		t.Errorf("delete of same-txn update: (%d, %s, %s, %d), want (3, delete, 11, 31)", tvn, op, pre, v)
	}
	// Impossible: update or delete of a deleted tuple. Exec's UPDATE and
	// DELETE skip invisible tuples (that is how SQL statements behave), so
	// probe the low-level error path directly.
	rid, _ := vt.Storage().SearchKey(key)
	ext, _ := vt.Storage().Get(rid)
	if err := m.ap.applyUpdate(vt, rid, ext, kvTuple(1, 99)); !errors.Is(err, ErrInvalidMaintenanceOp) {
		t.Errorf("update of deleted tuple: %v", err)
	}
	if err := m.ap.applyDelete(vt, rid, ext); !errors.Is(err, ErrInvalidMaintenanceOp) {
		t.Errorf("delete of deleted tuple: %v", err)
	}
	// UpdateKey/DeleteKey on the deleted tuple report "not found".
	if found, err := m.UpdateKey("kv", key, setV(0)); err != nil || found {
		t.Errorf("UpdateKey on deleted = (%v, %v), want (false, nil)", found, err)
	}
	commit(t, m)

	// Table 4 row 1 (prev update, earlier txn): PV ← CV, op ← delete.
	m = mustMaint(t, s)                                    // VN 4
	if err := m.Insert("kv", kvTuple(1, 40)); err != nil { // over the deleted tuple
		t.Fatal(err)
	}
	commit(t, m)
	m = mustMaint(t, s) // VN 5
	if _, err := m.DeleteKey("kv", key); err != nil {
		t.Fatal(err)
	}
	if tvn, op, pre, v := slot1(); tvn != 5 || op != OpDelete || pre != "40" || v != 40 {
		t.Errorf("delete row 1: (%d, %s, %s, %d), want (5, delete, 40, 40)", tvn, op, pre, v)
	}
	st := m.Stats()
	if st.PhysicalDeletes != 0 {
		t.Errorf("logical delete of pre-existing tuple must be a physical update: %+v", st)
	}
	commit(t, m)

	// Table 4 row 2 (prev insert, same txn): physical delete.
	m = mustMaint(t, s) // VN 6
	if err := m.Insert("kv", kvTuple(7, 70)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := vt.Storage().SearchKey(catalog.Tuple{catalog.NewInt(7)}); ok {
		t.Error("insert+delete same txn must physically remove the tuple")
	}
	if st := m.Stats(); st.PhysicalDeletes != 1 {
		t.Errorf("physical delete not counted: %+v", st)
	}
	commit(t, m)
}

// oracle keeps the full logical history: for every committed version, the
// complete k→v map. It is the ground truth the property test compares 2VNL
// reconstruction against.
type oracle struct {
	history []map[int64]int64 // history[vn] = state as of version vn+1... index by vn-1
}

func newOracle() *oracle {
	return &oracle{history: []map[int64]int64{{}}} // version 1 = empty
}

func (o *oracle) commit(next map[int64]int64) {
	cp := make(map[int64]int64, len(next))
	for k, v := range next {
		cp[k] = v
	}
	o.history = append(o.history, cp)
}

func (o *oracle) at(vn VN) map[int64]int64 { return o.history[vn-1] }

// TestVersionReconstructionProperty drives random maintenance transactions
// against both the 2VNL/nVNL store and a full-history oracle, then checks
// that every still-reconstructible version matches the oracle exactly, and
// every older version reports expiration on at least the tuples that
// require it.
func TestVersionReconstructionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%3) // n ∈ {2,3,4}
		rng := rand.New(rand.NewSource(seed))
		s := newStore(t, n)
		if _, err := s.CreateTable(kvSchema()); err != nil {
			t.Fatal(err)
		}
		o := newOracle()
		state := map[int64]int64{}
		const keys = 8
		numTxns := 3 + rng.Intn(5)
		for txn := 0; txn < numTxns; txn++ {
			m, err := s.BeginMaintenance()
			if err != nil {
				t.Logf("seed %d: begin: %v", seed, err)
				return false
			}
			ops := 1 + rng.Intn(6)
			for i := 0; i < ops; i++ {
				k := int64(rng.Intn(keys))
				_, live := state[k]
				switch {
				case !live:
					v := rng.Int63n(1000)
					if err := m.Insert("kv", kvTuple(k, v)); err != nil {
						t.Logf("seed %d: insert: %v", seed, err)
						return false
					}
					state[k] = v
				case rng.Intn(2) == 0:
					v := rng.Int63n(1000)
					found, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(k)},
						func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(v); return c })
					if err != nil || !found {
						t.Logf("seed %d: update: %v %v", seed, found, err)
						return false
					}
					state[k] = v
				default:
					found, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(k)})
					if err != nil || !found {
						t.Logf("seed %d: delete: %v %v", seed, found, err)
						return false
					}
					delete(state, k)
				}
			}
			if err := m.Commit(); err != nil {
				return false
			}
			o.commit(state)
		}
		// Check every version against the oracle.
		vt, _ := s.Table("kv")
		e := vt.Ext()
		cur := s.CurrentVN()
		for vn := VN(1); vn <= cur; vn++ {
			want := o.at(vn)
			got := map[int64]int64{}
			anyExpired := false
			vt.Storage().Scan(func(_ storage.RID, tu catalog.Tuple) bool {
				base, visible, err := e.ReadAsOf(tu, vn)
				if errors.Is(err, ErrSessionExpired) {
					anyExpired = true
					return true
				}
				if err != nil {
					t.Logf("seed %d: ReadAsOf: %v", seed, err)
					anyExpired = true
					return false
				}
				if visible {
					got[base[0].Int()] = base[1].Int()
				}
				return true
			})
			reconstructible := vn >= cur-VN(n-1)
			if reconstructible {
				if anyExpired {
					t.Logf("seed %d n=%d: version %d (cur %d) reported expired", seed, n, vn, cur)
					return false
				}
				if len(got) != len(want) {
					t.Logf("seed %d n=%d: version %d: %d tuples, want %d", seed, n, vn, len(got), len(want))
					return false
				}
				for k, v := range want {
					if got[k] != v {
						t.Logf("seed %d n=%d: version %d key %d: %d want %d", seed, n, vn, k, got[k], v)
						return false
					}
				}
				planned := planAsOf(t, s, "kv", vn)
				for _, tu := range planned.Tuples {
					if v, ok := want[tu[0].Int()]; !ok || v != tu[1].Int() {
						t.Logf("seed %d n=%d: version %d: compiled plan read %v, want %v", seed, n, vn, tu, want)
						return false
					}
				}
				if planned.Len() != len(want) {
					t.Logf("seed %d n=%d: version %d: compiled plan read %d tuples, want %d", seed, n, vn, planned.Len(), len(want))
					return false
				}
			}
			// For non-reconstructible versions the per-tuple detector may
			// or may not fire (only tuples modified too often trigger it);
			// no assertion beyond not crashing.
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
