package server

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
)

// encoderStatements are the compiled-plan suites' statements (scans,
// projections, LIMITs, the index path, aggregates), the shapes that fall
// back to the tree-walker (joins, ORDER BY, DISTINCT, a non-grouped column),
// and statements that fail: while planning, on the first row, and on a row
// past many delivered ones.
var encoderStatements = []string{
	`SELECT * FROM kv`,
	`SELECT k, v FROM kv WHERE v < 150`,
	`SELECT k FROM kv WHERE v >= 1000`,
	`SELECT k, v + 1 FROM kv WHERE k >= 10 AND k < 60`,
	`SELECT v FROM kv WHERE k = :k`,
	`SELECT k FROM kv WHERE v BETWEEN 120 AND 140 LIMIT 5`,
	`SELECT k FROM kv LIMIT 0`,
	`SELECT v FROM kv WHERE k = :k LIMIT 0`,
	`SELECT CASE WHEN v < 150 THEN 'lo' ELSE 'hi' END, k * 1.5, k < 3 FROM kv WHERE k < 20`,
	`SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM kv`,
	`SELECT k / 10, COUNT(*), SUM(v) FROM kv GROUP BY k / 10`,
	`SELECT v / 100, COUNT(*), MIN(k) FROM kv GROUP BY v / 100`,
	`SELECT k / 25, SUM(v) FROM kv WHERE v < 1000 GROUP BY k / 25 HAVING SUM(v) > 0`,
	`SELECT k / 10, MAX(v) FROM kv WHERE k >= :k GROUP BY k / 10 LIMIT 3`,
	`SELECT COUNT(*) FROM kv WHERE k < 0`,
	`SELECT kv.k, kv.v, grp.label FROM kv, grp WHERE kv.k / 10 = grp.g AND kv.v < 1000 ORDER BY kv.k LIMIT 25`,
	`SELECT a.k, b.v FROM kv a, kv b WHERE a.k = b.k - 1 AND a.v > b.v ORDER BY a.k`,
	`SELECT kv.k, names.name FROM kv, names WHERE kv.k / 10 = names.g AND kv.v > 150 ORDER BY kv.k DESC LIMIT 12`,
	`SELECT k, v FROM kv WHERE v > 100 ORDER BY v DESC, k LIMIT 10`,
	`SELECT DISTINCT v / 100 FROM kv`,
	`SELECT k / 10, v, COUNT(*) FROM kv GROUP BY k / 10`,
	`SELECT names.name, UPPER(names.name), NULL FROM names`,
	`SELECT k, 10 / (v - v) FROM kv`,
	`SELECT k, 10 / (v - 1117) FROM kv`,
	`SELECT nope FROM kv`,
	`SELECT k FROM no_such_table`,
}

// encoderStore builds kv over three versions (updates, deletes, inserts)
// beside grp, a second versioned relation, and names, a plain table, and
// returns sessions pinned at each version.
func encoderStore(t *testing.T) (*core.Store, []*core.Session) {
	t.Helper()
	store, err := core.Open(db.Open(db.Options{}), core.Options{N: 4, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`,
		`CREATE TABLE grp (g INT(8), label INT(8) UPDATABLE, UNIQUE KEY(g))`,
	} {
		if _, err := store.CreateTableSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	names, err := store.DB().CreateTable(catalog.MustSchema("names", []catalog.Column{
		{Name: "g", Type: catalog.TypeInt, Length: 8},
		{Name: "name", Type: catalog.TypeString, Length: 8},
	}, "g"))
	if err != nil {
		t.Fatal(err)
	}
	for g := int64(0); g < 10; g++ {
		if _, err := names.Insert(catalog.Tuple{catalog.NewInt(g), catalog.NewString(fmt.Sprintf("n%d", g))}); err != nil {
			t.Fatal(err)
		}
	}
	row := func(k, v int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)} }
	key := func(k int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k)} }
	var sessions []*core.Session
	for step := 0; step < 3; step++ {
		m, err := store.BeginMaintenance()
		if err != nil {
			t.Fatal(err)
		}
		switch step {
		case 0:
			for k := int64(0); k < 120; k++ {
				if err == nil {
					err = m.Insert("kv", row(k, 100+k))
				}
			}
			for g := int64(0); g < 10 && err == nil; g++ {
				err = m.Insert("grp", row(g, 10*g))
			}
		case 1:
			for k := int64(0); k < 120 && err == nil; k += 3 {
				_, err = m.UpdateKey("kv", key(k), func(catalog.Tuple) catalog.Tuple { return row(k, 1000+k) })
			}
			for k := int64(5); k < 120 && err == nil; k += 20 {
				_, err = m.DeleteKey("kv", key(k))
			}
			if err == nil {
				_, err = m.DeleteKey("grp", key(7))
			}
		default:
			for k := int64(200); k < 220 && err == nil; k++ {
				err = m.Insert("kv", row(k, k))
			}
			if err == nil {
				_, err = m.UpdateKey("grp", key(2), func(catalog.Tuple) catalog.Tuple { return row(2, 99) })
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, store.BeginSession())
	}
	return store, sessions
}

// answer returns a response's frame type and body as the writer sends them,
// returning any encoder to the free list as the writer does.
func (c *conn) answer(f outFrame) (MsgType, []byte) {
	if f.enc == nil {
		return f.t, f.body
	}
	body := bytes.Clone(f.enc.frame()[frameHeader:])
	c.release(f.enc)
	return f.t, body
}

// The encoder writes the bytes the materialized result's Rows.Append writes,
// and an error the same MsgErr, for every statement of the compiled-plan and
// fallback suites, at three versions, through MsgQuery and MsgExecStmt: the
// wire bytes do not depend on which way a result reaches them.
func TestEncoderMatchesRowsAppend(t *testing.T) {
	store, pinned := encoderStore(t)
	s := New(Config{Store: store, Metrics: obs.NewRegistry()})
	c := &conn{srv: s, sessions: make(map[uint32]BackendSession), encs: make(chan *rowsEncoder, 2)}
	params := map[string]catalog.Value{"k": catalog.NewInt(33)}
	for i, sess := range pinned {
		sid := uint32(100 + i)
		c.sessions[sid] = coreSession{s: sess}
		for _, q := range encoderStatements {
			rows, err := sess.Query(q, params)
			wantT, want := MsgRows, []byte(nil)
			if err != nil {
				wantT, want = MsgErr, wireErr(wireCode(err), err)
			} else {
				want = Rows{Columns: rows.Columns, Tuples: rows.Tuples}.Append(nil)
			}
			got := map[string]outFrame{"MsgQuery": c.handle(MsgQuery, Query{SID: sid, SQL: q, Params: params}.Encode())}
			if prep := c.handle(MsgPrepare, Prepare{SQL: q}.Encode()); prep.t == MsgPrepared {
				p, err := DecodePrepared(prep.body)
				if err != nil {
					t.Fatal(err)
				}
				got["MsgExecStmt"] = c.handle(MsgExecStmt, ExecStmt{SID: sid, StmtID: p.StmtID, Params: params}.Encode())
			}
			for via, f := range got {
				if gt, body := c.answer(f); gt != wantT || !bytes.Equal(body, want) {
					t.Fatalf("vn %d %s %q: %v %x\nwant %v %x", sess.VN(), via, q, gt, body, wantT, want)
				}
			}
		}
	}
	for _, sess := range pinned {
		sess.Close()
	}
}
