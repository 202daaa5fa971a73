package core

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/storage"
)

// dailySalesSchema is the paper's running example (Example 2.1, Figure 3):
// the group-by attributes are the unique key and only total_sales is
// updatable. Column lengths follow Figure 3 exactly.
func dailySalesSchema() *catalog.Schema {
	return catalog.MustSchema("DailySales", []catalog.Column{
		{Name: "city", Type: catalog.TypeString, Length: 20},
		{Name: "state", Type: catalog.TypeString, Length: 2},
		{Name: "product_line", Type: catalog.TypeString, Length: 12},
		{Name: "date", Type: catalog.TypeDate, Length: 4},
		{Name: "total_sales", Type: catalog.TypeInt, Length: 4, Updatable: true},
	}, "city", "state", "product_line", "date")
}

func date(t *testing.T, s string) catalog.Value {
	t.Helper()
	v, err := catalog.ParseDate(s)
	if err != nil {
		t.Fatalf("date %q: %v", s, err)
	}
	return v
}

func salesTuple(t *testing.T, city, pl, dt string, total int64) catalog.Tuple {
	t.Helper()
	return catalog.Tuple{
		catalog.NewString(city), catalog.NewString("CA"), catalog.NewString(pl),
		date(t, dt), catalog.NewInt(total),
	}
}

// newStore opens a fresh database + version store with n versions.
func newStore(t *testing.T, n int, opts ...func(*Options)) *Store {
	t.Helper()
	d := db.Open(db.Options{})
	o := Options{N: n}
	for _, f := range opts {
		f(&o)
	}
	s, err := Open(d, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustMaint(t testing.TB, s *Store) *Maintenance {
	t.Helper()
	m, err := s.BeginMaintenance()
	if err != nil {
		t.Fatalf("BeginMaintenance: %v", err)
	}
	return m
}

func commit(t testing.TB, m *Maintenance) {
	t.Helper()
	if err := m.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// setupFigure4 drives maintenance transactions so the DailySales relation
// reaches exactly the state of Figure 4:
//
//	tupleVN op     city     product_line date     total pre
//	3       insert San Jose golf equip   10/14/96 10000 null
//	4       insert San Jose golf equip   10/15/96  1500 null
//	4       update Berkeley racquetball  10/14/96 12000 10000
//	4       delete Novato   rollerblades 10/13/96  8000 8000
//
// It returns the store with currentVN = 4 and, when grabSession3 is set, a
// session begun at VN 3 (between transactions 3 and 4).
func setupFigure4(t *testing.T, s *Store) *Session {
	t.Helper()
	if _, err := s.CreateTable(dailySalesSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	// Transaction VN=2: load the older tuples.
	m := mustMaint(t, s)
	if m.VN() != 2 {
		t.Fatalf("first maintenanceVN = %d, want 2", m.VN())
	}
	if err := m.Insert("DailySales", salesTuple(t, "Berkeley", "racquetball", "10/14/96", 10000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("DailySales", salesTuple(t, "Novato", "rollerblades", "10/13/96", 8000)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	// Transaction VN=3: the San Jose 10/14 insert of Figure 4 row 1.
	m = mustMaint(t, s)
	if err := m.Insert("DailySales", salesTuple(t, "San Jose", "golf equip", "10/14/96", 10000)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	sess := s.BeginSession()
	if sess.VN() != 3 {
		t.Fatalf("sessionVN = %d, want 3", sess.VN())
	}
	// Transaction VN=4: rows 2–4 of Figure 4.
	m = mustMaint(t, s)
	if err := m.Insert("DailySales", salesTuple(t, "San Jose", "golf equip", "10/15/96", 1500)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.UpdateKey("DailySales",
		catalog.Tuple{catalog.NewString("Berkeley"), catalog.NewString("CA"), catalog.NewString("racquetball"), date(t, "10/14/96")},
		func(cur catalog.Tuple) catalog.Tuple {
			cur[4] = catalog.NewInt(12000)
			return cur
		}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteKey("DailySales",
		catalog.Tuple{catalog.NewString("Novato"), catalog.NewString("CA"), catalog.NewString("rollerblades"), date(t, "10/13/96")}); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	if got := s.CurrentVN(); got != 4 {
		t.Fatalf("currentVN = %d, want 4", got)
	}
	return sess
}

// extRow is a flattened view of one extended DailySales tuple for
// comparison against the paper's figures.
type extRow struct {
	tvn   int64
	op    string
	city  string
	pl    string
	date  string
	total int64
	pre   string // "null" or the number
}

func snapshotExt(t *testing.T, s *Store) map[string]extRow {
	t.Helper()
	vt, err := s.Table("DailySales")
	if err != nil {
		t.Fatal(err)
	}
	e := vt.Ext()
	out := make(map[string]extRow)
	vt.Storage().Scan(func(_ storage.RID, tu catalog.Tuple) bool {
		base := e.BaseValues(tu)
		r := extRow{
			tvn:   int64(e.TupleVN(tu, 1)),
			op:    string(e.OpAt(tu, 1)),
			city:  base[0].Str(),
			pl:    base[2].Str(),
			date:  base[3].String(),
			total: base[4].Int(),
			pre:   e.PreValues(tu, 1)[0].String(),
		}
		out[r.city+"/"+r.pl+"/"+r.date] = r
		return true
	})
	return out
}

// TestFigure4State verifies the physical extended relation matches Figure 4
// cell by cell.
func TestFigure4State(t *testing.T) {
	s := newStore(t, 2)
	setupFigure4(t, s)
	got := snapshotExt(t, s)
	want := map[string]extRow{
		"San Jose/golf equip/10/14/96":  {3, "insert", "San Jose", "golf equip", "10/14/96", 10000, "null"},
		"San Jose/golf equip/10/15/96":  {4, "insert", "San Jose", "golf equip", "10/15/96", 1500, "null"},
		"Berkeley/racquetball/10/14/96": {4, "update", "Berkeley", "racquetball", "10/14/96", 12000, "10000"},
		"Novato/rollerblades/10/13/96":  {4, "delete", "Novato", "rollerblades", "10/13/96", 8000, "8000"},
	}
	if len(got) != len(want) {
		t.Fatalf("relation has %d tuples, want %d: %+v", len(got), len(want), got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s:\n got %+v\nwant %+v", k, got[k], w)
		}
	}
}

// TestExample32ReaderView verifies a reader with sessionVN = 3 sees exactly
// the three logical tuples of Example 3.2.
func TestExample32ReaderView(t *testing.T) {
	s := newStore(t, 2)
	sess := setupFigure4(t, s)
	defer sess.Close()

	var seen []string
	err := sess.Scan("DailySales", func(base catalog.Tuple) bool {
		seen = append(seen, base[0].Str()+"|"+base[2].Str()+"|"+base[4].String())
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	want := map[string]bool{
		"San Jose|golf equip|10000":  true,
		"Berkeley|racquetball|10000": true, // pre-update value, not 12000
		"Novato|rollerblades|8000":   true, // pre-delete value: still visible at VN 3
	}
	if len(seen) != 3 {
		t.Fatalf("reader saw %d tuples, want 3: %v", len(seen), seen)
	}
	for _, row := range seen {
		if !want[row] {
			t.Errorf("unexpected row %q", row)
		}
	}

	// The same view through the SQL rewrite path.
	rows, err := sess.Query(`SELECT city, product_line, total_sales FROM DailySales`, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rows.Len() != 3 {
		t.Fatalf("SQL reader saw %d rows:\n%s", rows.Len(), rows)
	}
	for _, tu := range rows.Tuples {
		key := tu[0].Str() + "|" + tu[1].Str() + "|" + tu[2].String()
		if !want[key] {
			t.Errorf("SQL row %q not in Example 3.2's expected view", key)
		}
	}

	// A fresh session at VN 4 sees the current state instead.
	s4 := s.BeginSession()
	defer s4.Close()
	rows, err = s4.Query(`SELECT SUM(total_sales) FROM DailySales`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Tuples[0][0].Int(); got != 10000+1500+12000 {
		t.Errorf("VN-4 total = %d, want 23500 (Novato deleted, Berkeley updated)", got)
	}
}

// TestFigure6MaintenanceResult applies the Figure 5 maintenance transaction
// (VN = 5) to the Figure 4 state and verifies the physical result matches
// Figure 6 cell by cell — including the net-effect and key-conflict
// handling of Tables 2–4.
func TestFigure6MaintenanceResult(t *testing.T) {
	s := newStore(t, 2)
	sess := setupFigure4(t, s)
	defer sess.Close()

	m := mustMaint(t, s)
	if m.VN() != 5 {
		t.Fatalf("maintenanceVN = %d, want 5", m.VN())
	}
	// Figure 5, op 1: insert San Jose golf equip 10/16/96, 11000.
	if err := m.Insert("DailySales", salesTuple(t, "San Jose", "golf equip", "10/16/96", 11000)); err != nil {
		t.Fatal(err)
	}
	// Figure 5, op 2: insert Novato rollerblades 10/13/96, 6000 — a key
	// conflict with the logically-deleted Novato tuple (Table 2, row 1).
	if err := m.Insert("DailySales", salesTuple(t, "Novato", "rollerblades", "10/13/96", 6000)); err != nil {
		t.Fatal(err)
	}
	// Figure 5, op 3: update San Jose golf equip 10/14/96 to 10200.
	if _, err := m.UpdateKey("DailySales",
		catalog.Tuple{catalog.NewString("San Jose"), catalog.NewString("CA"), catalog.NewString("golf equip"), date(t, "10/14/96")},
		func(cur catalog.Tuple) catalog.Tuple {
			cur[4] = catalog.NewInt(10200)
			return cur
		}); err != nil {
		t.Fatal(err)
	}
	// Figure 5, op 4: delete Berkeley racquetball 10/14/96.
	if _, err := m.DeleteKey("DailySales",
		catalog.Tuple{catalog.NewString("Berkeley"), catalog.NewString("CA"), catalog.NewString("racquetball"), date(t, "10/14/96")}); err != nil {
		t.Fatal(err)
	}
	commit(t, m)

	got := snapshotExt(t, s)
	want := map[string]extRow{
		"San Jose/golf equip/10/14/96":  {5, "update", "San Jose", "golf equip", "10/14/96", 10200, "10000"},
		"San Jose/golf equip/10/15/96":  {4, "insert", "San Jose", "golf equip", "10/15/96", 1500, "null"},
		"Berkeley/racquetball/10/14/96": {5, "delete", "Berkeley", "racquetball", "10/14/96", 12000, "12000"},
		"Novato/rollerblades/10/13/96":  {5, "insert", "Novato", "rollerblades", "10/13/96", 6000, "null"},
		"San Jose/golf equip/10/16/96":  {5, "insert", "San Jose", "golf equip", "10/16/96", 11000, "null"},
	}
	if len(got) != len(want) {
		t.Fatalf("relation has %d tuples, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s:\n got %+v\nwant %+v (Figure 6)", k, got[k], w)
		}
	}

	// A session begun at VN 4 during transaction 5 keeps reading version 4
	// throughout (it already exists: the Figure-4 reader at VN 3 is now
	// expired since transaction 5 began after transaction 4 committed).
	if err := sess.Check(); err == nil {
		t.Error("VN-3 session should have expired when transaction 5 began... " +
			"(it overlapped two maintenance transactions)")
	}
}

// TestExample51NVNL reproduces Figure 7 / Example 5.1: a 4VNL tuple after
// insert(VN 3), update(VN 5), delete(VN 6), and the per-session visibility
// the paper walks through.
func TestExample51NVNL(t *testing.T) {
	s := newStore(t, 4)
	if _, err := s.CreateTable(dailySalesSchema()); err != nil {
		t.Fatal(err)
	}
	key := catalog.Tuple{catalog.NewString("San Jose"), catalog.NewString("CA"), catalog.NewString("golf equip"), date(t, "10/14/96")}

	runTxn := func(fn func(m *Maintenance)) {
		m := mustMaint(t, s)
		if fn != nil {
			fn(m)
		}
		commit(t, m)
	}
	runTxn(nil)                   // VN 2: empty
	runTxn(func(m *Maintenance) { // VN 3: insert 10000
		if err := m.Insert("DailySales", salesTuple(t, "San Jose", "golf equip", "10/14/96", 10000)); err != nil {
			t.Fatal(err)
		}
	})
	runTxn(nil)                   // VN 4: empty
	runTxn(func(m *Maintenance) { // VN 5: update to 10200
		if _, err := m.UpdateKey("DailySales", key, func(cur catalog.Tuple) catalog.Tuple {
			cur[4] = catalog.NewInt(10200)
			return cur
		}); err != nil {
			t.Fatal(err)
		}
	})
	runTxn(func(m *Maintenance) { // VN 6: delete
		if _, err := m.DeleteKey("DailySales", key); err != nil {
			t.Fatal(err)
		}
	})

	// Verify the physical tuple matches Figure 7.
	vt, _ := s.Table("DailySales")
	e := vt.Ext()
	var ext catalog.Tuple
	vt.Storage().Scan(func(_ storage.RID, tu catalog.Tuple) bool { ext = tu; return false })
	if ext == nil {
		t.Fatal("tuple vanished")
	}
	check := func(j int, tvn VN, op Op, pre string) {
		t.Helper()
		if e.TupleVN(ext, j) != tvn || e.OpAt(ext, j) != op {
			t.Errorf("slot %d = (%d, %s), want (%d, %s)", j, e.TupleVN(ext, j), e.OpAt(ext, j), tvn, op)
		}
		if got := e.PreValues(ext, j)[0].String(); got != pre {
			t.Errorf("pre%d_total_sales = %s, want %s", j, got, pre)
		}
	}
	if got := e.BaseValues(ext)[4].Int(); got != 10200 {
		t.Errorf("total_sales = %d, want 10200 (Figure 7)", got)
	}
	check(1, 6, OpDelete, "10200")
	check(2, 5, OpUpdate, "10000")
	check(3, 3, OpInsert, "null")

	// Per-session visibility, exactly as Example 5.1 narrates.
	cases := []struct {
		vn      VN
		visible bool
		total   int64
		expired bool
	}{
		{7, false, 0, false}, // >= 6: ignore (deleted)
		{6, false, 0, false},
		{5, true, 10200, false},
		{4, true, 10000, false},
		{3, true, 10000, false},
		{2, false, 0, false}, // pre-update of insert: ignore
		{1, false, 0, true},  // expired
	}
	for _, c := range cases {
		base, visible, err := e.ReadAsOf(ext, c.vn)
		if c.expired {
			if err != ErrSessionExpired {
				t.Errorf("s=%d: err = %v, want ErrSessionExpired", c.vn, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("s=%d: %v", c.vn, err)
			continue
		}
		if visible != (base != nil) {
			t.Errorf("s=%d: ReadAsOf visible = %v with base %v", c.vn, visible, base)
		}
		// The compiled plan reads the same stored tuple through Slot.
		var planned catalog.Tuple
		if rows := planAsOf(t, s, "DailySales", c.vn); rows.Len() > 0 {
			planned = rows.Tuples[0]
		}
		for path, got := range map[string]catalog.Tuple{"ReadAsOf": base, "plan": planned} {
			if (got != nil) != c.visible {
				t.Errorf("s=%d: %s: visible = %v, want %v", c.vn, path, got != nil, c.visible)
				continue
			}
			if got != nil && got[4].Int() != c.total {
				t.Errorf("s=%d: %s: total = %d, want %d", c.vn, path, got[4].Int(), c.total)
			}
		}
	}
}

// TestExample41RewriteText verifies the reader rewrite produces the CASE
// expression and WHERE predicate of Example 4.1.
func TestExample41RewriteText(t *testing.T) {
	s := newStore(t, 2)
	setupFigure4(t, s).Close()
	sess := s.BeginSession()
	defer sess.Close()
	got, err := sess.Rewrite(`SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state`)
	if err != nil {
		t.Fatal(err)
	}
	for _, fragment := range []string{
		"CASE WHEN (:sessionVN >= tupleVN) THEN total_sales ELSE pre_total_sales END",
		"(:sessionVN >= tupleVN) AND (operation <> 'delete')",
		"(:sessionVN < tupleVN) AND (operation <> 'insert')",
		"GROUP BY city, state",
	} {
		if !strings.Contains(got, fragment) {
			t.Errorf("rewritten query missing %q:\n%s", fragment, got)
		}
	}
	// Non-updatable attributes are untouched.
	if strings.Contains(got, "CASE WHEN (:sessionVN >= tupleVN) THEN city") {
		t.Error("rewrite wrapped a non-updatable attribute in CASE")
	}
}

// TestFigure3Overhead verifies the schema-extension storage numbers the
// paper reports: DailySales grows from 42 to 51 bytes, about 20%.
func TestFigure3Overhead(t *testing.T) {
	ext, err := ExtendSchema(dailySalesSchema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	base, extended, ratio := ext.Overhead()
	if base != 42 {
		t.Errorf("base bytes = %d, want 42", base)
	}
	if extended != 51 {
		t.Errorf("extended bytes = %d, want 51 (Figure 3)", extended)
	}
	if ratio < 0.20 || ratio > 0.22 {
		t.Errorf("overhead = %.3f, want ≈ 0.214 (the paper's ≈20%%)", ratio)
	}
	// Worst case: every attribute updatable → roughly doubling (§3.1).
	worst := catalog.MustSchema("w", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Length: 8, Updatable: true},
		{Name: "b", Type: catalog.TypeInt, Length: 8, Updatable: true},
	})
	we, _ := ExtendSchema(worst, 2)
	_, _, wr := we.Overhead()
	if wr < 1.0 {
		t.Errorf("worst-case overhead = %.2f, want >= 1.0 (approximately doubling)", wr)
	}
}
