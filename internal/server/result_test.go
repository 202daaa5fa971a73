package server_test

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/pkg/vnlclient"
)

// rawConn is a client that speaks frames directly, so a test sees every
// frame the server sends.
type rawConn struct {
	t  testing.TB
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t testing.TB, srv *server.Server) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	c := &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
	c.send(server.MsgHello, server.Hello{ClientName: "raw"}.Encode())
	c.want(server.MsgWelcome)
	return c
}

func (c *rawConn) send(mt server.MsgType, body []byte) {
	c.t.Helper()
	if err := server.WriteFrame(c.nc, mt, body); err != nil {
		c.t.Fatal(err)
	}
}

// want reads the next frame and requires its type.
func (c *rawConn) want(mt server.MsgType) []byte {
	c.t.Helper()
	rt, body, err := server.ReadFrame(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	if rt != mt {
		c.t.Fatalf("answered %v (%q), want %v", rt, body, mt)
	}
	return body
}

func (c *rawConn) prepare(q string) uint32 {
	c.t.Helper()
	c.send(server.MsgPrepare, server.Prepare{SQL: q}.Encode())
	p, err := server.DecodePrepared(c.want(server.MsgPrepared))
	if err != nil {
		c.t.Fatal(err)
	}
	return p.StmtID
}

// A prepared statement that fails on the last of 120 rows, after the encoder
// holds the 119 before it, answers one MsgErr with CodeExec and no rows;
// the next statement on the connection answers exactly its own rows, from a
// reset encoder.
func TestFailedQueryAnswersNoRows(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{})
	var deltas []vnlclient.Delta
	for k := int64(0); k < 120; k++ {
		v := 100 + k
		if k == 119 {
			v = 0
		}
		deltas = append(deltas, kvInsert(k, v))
	}
	if _, err := c.ApplyBatch(deltas); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, srv)
	failing, ok := rc.prepare(`SELECT k, 10 / v FROM kv`), rc.prepare(`SELECT k, v FROM kv WHERE k < 3`)
	for round := 0; round < 3; round++ {
		rc.send(server.MsgExecStmt, server.ExecStmt{StmtID: failing}.Encode())
		e, err := server.DecodeErrMsg(rc.want(server.MsgErr))
		if err != nil || e.Code != server.CodeExec {
			t.Fatalf("round %d: %+v, %v; want CodeExec", round, e, err)
		}
		rc.send(server.MsgExecStmt, server.ExecStmt{StmtID: ok}.Encode())
		rows, err := server.DecodeRows(rc.want(server.MsgRows))
		if err != nil || fmt.Sprint(rows.Columns, rows.Tuples) != "[k v] [(0, 100) (1, 101) (2, 102)]" {
			t.Fatalf("round %d: the next statement answered %v %v, %v", round, rows.Columns, rows.Tuples, err)
		}
	}
}

// The allocation pin for one prepared scan returning 256 of 4 096 rows over
// loopback, client and server together: the server encodes the rows into
// its reused encoder as the plan projects them, so what is left is the
// request and response frames' bookkeeping, the evaluation context and the
// selection, and the client's decode of the answer (29 allocations while the
// server built an exec.Rows and encoded it afterwards). The limit leaves a
// little room; raising it needs a reason.
func TestPreparedScanRoundTripAllocations(t *testing.T) {
	srv, store := startServer(t)
	if _, err := store.CreateTableSQL(`CREATE TABLE fact (id INT(8), grp INT(8), qty INT(8) UPDATABLE, amount INT(8) UPDATABLE, UNIQUE KEY(id))`); err != nil {
		t.Fatal(err)
	}
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 4096; id++ {
		if err := m.Insert("fact", catalog.Tuple{catalog.NewInt(id), catalog.NewInt(id % 16), catalog.NewInt(id * 3), catalog.NewInt(id * 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, srv, vnlclient.Options{})
	st, err := c.Prepare(`SELECT id, qty, amount FROM fact WHERE grp = :g`)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	params := vnlclient.Params{"g": catalog.NewInt(5)}
	allocs := testing.AllocsPerRun(50, func() {
		rows, err := sess.QueryStmt(st, params)
		if err != nil || len(rows.Tuples) != 256 {
			t.Fatalf("rows=%v err=%v", rows, err)
		}
	})
	t.Logf("%.1f allocations per 256-row prepared scan round trip", allocs)
	if allocs > 16 {
		t.Errorf("%.1f allocations per 256-row prepared scan round trip; the limit is 16", allocs)
	}
}

// A raw client pipelines 32 prepared executions on one connection before it
// reads any answer, while another client applies maintenance batches: the
// server's reader goroutine encodes answer after answer while its writer is
// still sending earlier ones, so an encoder handed back to the free list
// too early, or shared between two answers, shows as a wrong answer. Each
// answer must be its own statement's rows. The batches rewrite v, which the
// statement does not read, so the rows do not depend on the version; a
// one-shot session the batches outrun answers CodeSessionExpired, which the
// paper allows.
func TestStressPipelinedExecStmt(t *testing.T) {
	store, err := core.Open(db.Open(db.Options{}), core.Options{N: 8, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTableSQL(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Addr: "127.0.0.1:0", Store: store, Metrics: obs.NewRegistry()})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	const keys = 256
	writer := dialServer(t, srv, vnlclient.Options{})
	var load []vnlclient.Delta
	for k := int64(0); k < keys; k++ {
		load = append(load, kvInsert(k, k))
	}
	if _, err := writer.ApplyBatch(load); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var batches atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			var upd []vnlclient.Delta
			for k := v % 7; k < keys; k += 7 {
				upd = append(upd, kvUpdate(k, k+v))
			}
			if _, err := writer.ApplyBatch(upd); err != nil {
				t.Error(err)
				return
			}
			batches.Add(1)
		}
	}()
	rc := dialRaw(t, srv)
	id := rc.prepare(`SELECT k, k * 3 FROM kv WHERE k >= :lo AND k < :hi`)
	const depth = 32
	expired := 0
	for round := 0; round < 20; round++ {
		for i := 0; i < depth; i++ {
			lo, hi := int64((round*depth+i)*7%keys), int64((round*depth+i)*7%keys+i*3)
			rc.send(server.MsgExecStmt, server.ExecStmt{StmtID: id, Params: map[string]catalog.Value{
				"lo": catalog.NewInt(lo), "hi": catalog.NewInt(hi)}}.Encode())
		}
		for i := 0; i < depth; i++ {
			lo, hi := int64((round*depth+i)*7%keys), int64((round*depth+i)*7%keys+i*3)
			rt, body, err := server.ReadFrame(rc.br)
			if err != nil {
				t.Fatal(err)
			}
			if rt == server.MsgErr {
				if e, _ := server.DecodeErrMsg(body); e.Code == server.CodeSessionExpired {
					expired++
					continue
				}
				t.Fatalf("round %d answer %d: %q", round, i, body)
			}
			rows, err := server.DecodeRows(body)
			if err != nil || rt != server.MsgRows {
				t.Fatalf("round %d answer %d: %v %v", round, i, rt, err)
			}
			want := []catalog.Tuple{}
			for k := lo; k < min(hi, keys); k++ {
				want = append(want, catalog.Tuple{catalog.NewInt(k), catalog.NewInt(3 * k)})
			}
			if fmt.Sprint(rows.Columns, rows.Tuples) != fmt.Sprint([]string{"k", "col2"}, want) {
				t.Fatalf("round %d answer %d (k in [%d, %d)): %v %v", round, i, lo, hi, rows.Columns, rows.Tuples)
			}
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d pipelined answers beside %d batches, %d expired", 20*depth, batches.Load(), expired)
	if expired > 20*depth/2 {
		t.Fatalf("%d of %d one-shot sessions expired", expired, 20*depth)
	}
}
