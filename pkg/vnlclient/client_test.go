package vnlclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server"
)

const pointSQL = "SELECT k, v FROM kv WHERE k = :k"

// startServer runs an in-process server on loopback over a fresh 2VNL store
// whose kv table holds k = 1..rows with v = 10k.
func startServer(t testing.TB, rows int) *server.Server {
	t.Helper()
	reg := obs.NewRegistry()
	store, err := core.Open(db.Open(db.Options{}), core.Options{N: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`,
		`CREATE TABLE doc (k INT(8), body VARCHAR(64) UPDATABLE, UNIQUE KEY(k))`,
	} {
		if _, err := store.CreateTableSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(server.Config{Addr: "127.0.0.1:0", Store: store, Metrics: reg})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := dial(t, srv, Options{})
	deltas := make([]Delta, rows)
	for i := range deltas {
		k := int64(i + 1)
		deltas[i] = Delta{Table: "kv", Op: DeltaInsert, Row: catalog.Tuple{catalog.NewInt(k), catalog.NewInt(10 * k)}}
	}
	if _, err := c.ApplyBatch(deltas); err != nil {
		t.Fatal(err)
	}
	return srv
}

func dial(t testing.TB, srv *server.Server, opts Options) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// checkPoint verifies a point read of key k.
func checkPoint(rows *Rows, err error, k int64) error {
	if err != nil {
		return fmt.Errorf("key %d: %w", k, err)
	}
	if len(rows.Columns) != 2 || rows.Columns[0] != "k" || rows.Columns[1] != "v" {
		return fmt.Errorf("key %d: columns %v", k, rows.Columns)
	}
	if len(rows.Tuples) != 1 || rows.Tuples[0][0].Int() != k || rows.Tuples[0][1].Int() != 10*k {
		return fmt.Errorf("key %d: got %v", k, rows.Tuples)
	}
	return nil
}

// Goroutines sharing one Session and one Stmt each get the answer to their
// own key: the session's connection reuses one read and one encode buffer,
// and every answer is decoded before the next exchange can overwrite it.
func TestSessionAndStmtSharedAcrossGoroutines(t *testing.T) {
	srv := startServer(t, 64)
	c := dial(t, srv, Options{})
	st, err := c.Prepare(pointSQL)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const workers, reads = 8, 200
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				k := int64(1 + (g*reads+i*7)%64)
				params := Params{"k": catalog.NewInt(k)}
				rows, err := sess.QueryStmt(st, params)
				if err := checkPoint(rows, err, k); err != nil {
					errs <- fmt.Errorf("session: %w", err)
					return
				}
				rows, err = sess.Query(pointSQL, params)
				if err := checkPoint(rows, err, k); err != nil {
					errs <- fmt.Errorf("session ad hoc: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// One-shot calls from many goroutines share a pool that keeps at most one
// idle connection: each checkout decodes its own answer before the
// connection goes back, and the pool never holds more than MaxIdle.
func TestPoolCheckoutUnderConcurrency(t *testing.T) {
	srv := startServer(t, 64)
	c := dial(t, srv, Options{MaxIdle: 1})
	st, err := c.Prepare(pointSQL)
	if err != nil {
		t.Fatal(err)
	}
	const workers, reads = 6, 100
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				k := int64(1 + (g*13+i)%64)
				params := Params{"k": catalog.NewInt(k)}
				rows, err := st.Query(params)
				if err := checkPoint(rows, err, k); err != nil {
					errs <- fmt.Errorf("stmt: %w", err)
					return
				}
				rows, err = c.Query(pointSQL, params)
				if err := checkPoint(rows, err, k); err != nil {
					errs <- fmt.Errorf("ad hoc: %w", err)
					return
				}
				if err := c.Ping(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle > 1 {
		t.Fatalf("pool holds %d idle connections, MaxIdle is 1", idle)
	}
}

// scriptedPeer is a hand-written server for one client at a time: it
// answers Hello, BeginSession (pinning VN 5 against the script's primary VN)
// and EndSession, and on any other request either drops the connection or,
// when the script stalls, never answers and waits for the client to hang up.
// It counts the sessions it grants and ends.
type scriptedPeer struct {
	ln     net.Listener
	script peerScript
	begins atomic.Int32
	ends   atomic.Int32
	done   chan struct{}
}

// peerScript is what a scriptedPeer does beyond the handshake.
type peerScript struct {
	primaryVN uint64 // reported beside session VN 5; 0 means 5, no lag
	stall     bool   // leave other requests unanswered instead of dropping
}

func newScriptedPeer(t *testing.T, script peerScript) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if script.primaryVN == 0 {
		script.primaryVN = 5
	}
	p := &scriptedPeer{ln: ln, script: script, done: make(chan struct{})}
	go p.serve()
	t.Cleanup(func() {
		_ = ln.Close()
		<-p.done
	})
	return p
}

func (p *scriptedPeer) serve() {
	defer close(p.done)
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.conn(nc)
	}
}

func (p *scriptedPeer) conn(nc net.Conn) {
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	for {
		t, _, err := server.ReadFrame(br)
		if err != nil {
			return
		}
		var resp []byte
		switch t {
		case server.MsgHello:
			t, resp = server.MsgWelcome, server.Welcome{Server: "scripted", N: 2, VN: 5, PrimaryVN: p.script.primaryVN}.Encode()
		case server.MsgBeginSession:
			p.begins.Add(1)
			t, resp = server.MsgSession, server.Session{SID: 1, VN: 5, PrimaryVN: p.script.primaryVN}.Encode()
		case server.MsgEndSession:
			p.ends.Add(1)
			t = server.MsgOK
		default:
			if p.script.stall {
				_, _, _ = server.ReadFrame(br) // returns when the client hangs up
			}
			return // drop the connection mid-session
		}
		if err := server.WriteFrame(nc, t, resp); err != nil {
			return
		}
	}
}

// A connection dropped mid-session fails the query, and the session stays
// failed: it never silently opens a new server-side session, which would
// read a different sessionVN than the one Begin pinned.
func TestDroppedConnectionFailsSessionWithoutRepinning(t *testing.T) {
	p := newScriptedPeer(t, peerScript{})
	c, err := Dial(p.ln.Addr().String(), Options{DialAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if sess.VN() != 5 {
		t.Fatalf("session VN %d, want 5", sess.VN())
	}
	_, err = sess.Query("SELECT k FROM kv", nil)
	if err == nil {
		t.Fatal("query on a dropped connection succeeded")
	}
	if _, ok := ErrorCode(err); ok {
		t.Fatalf("dropped connection reported as a server error: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.Query("SELECT k FROM kv", nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("query %d after the drop: %v, want ErrClosed", i, err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("closing the failed session: %v", err)
	}
	if sess.VN() != 5 {
		t.Fatalf("session VN moved to %d after the drop", sess.VN())
	}
	if n := p.begins.Load(); n != 1 {
		t.Fatalf("peer granted %d sessions, want 1: the client re-pinned", n)
	}
}

// A server that stops answering costs a caller OpTimeout, not forever: the
// session's query and a one-shot query each fail with a deadline error once
// the timeout passes, and the stalled session stays failed.
func TestOpTimeoutAgainstAStalledPeer(t *testing.T) {
	p := newScriptedPeer(t, peerScript{stall: true})
	const timeout = 150 * time.Millisecond
	c, err := Dial(p.ln.Addr().String(), Options{DialAttempts: 1, OpTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	stalled := func(what string, query func() error) {
		t.Helper()
		start := time.Now()
		err := query()
		took := time.Since(start)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s against a stalled peer: %v, want a deadline error", what, err)
		}
		// The peer itself gives up after 5 s; well before that, the
		// client's own deadline must have fired.
		if took < timeout || took > 10*timeout {
			t.Fatalf("%s failed after %v, want about the %v OpTimeout", what, took, timeout)
		}
	}
	stalled("session query", func() error {
		_, err := sess.Query("SELECT k FROM kv", nil)
		return err
	})
	if _, err := sess.Query("SELECT k FROM kv", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after the timeout: %v, want ErrClosed", err)
	}
	stalled("one-shot query", func() error {
		_, err := c.Query("SELECT k FROM kv", nil)
		return err
	})
	if n := p.begins.Load(); n != 1 {
		t.Fatalf("peer granted %d sessions, want 1", n)
	}
}

// MaxStalenessVNs refuses a session that lags its primary by more than the
// bound with ErrTooStale, and ends it server-side first, so a replica's GC
// floor is not pinned by a session nobody reads. A lag at the bound, or no
// bound, is accepted.
func TestMaxStalenessVNsRefusesALaggingSession(t *testing.T) {
	p := newScriptedPeer(t, peerScript{primaryVN: 9}) // sessions lag by 4
	begin := func(bound uint64) (*Session, error) {
		t.Helper()
		c, err := Dial(p.ln.Addr().String(), Options{DialAttempts: 1, MaxStalenessVNs: bound})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		sess, err := c.Begin()
		if sess != nil {
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// The peer serves one connection at a time: hang up for the next.
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return sess, err
	}
	if _, err := begin(3); !errors.Is(err, ErrTooStale) {
		t.Fatalf("lag 4 over bound 3: %v, want ErrTooStale", err)
	}
	if b, e := p.begins.Load(), p.ends.Load(); b != 1 || e != 1 {
		t.Fatalf("after the refusal the peer granted %d sessions and ended %d, want 1 and 1", b, e)
	}
	for _, bound := range []uint64{4, 0} {
		sess, err := begin(bound)
		if err != nil {
			t.Fatalf("lag 4 under bound %d: %v", bound, err)
		}
		if sess.VN() != 5 || sess.PrimaryVN() != 9 || sess.Lag() != 4 {
			t.Fatalf("bound %d: session VN %d, primary %d, lag %d; want 5, 9, 4", bound, sess.VN(), sess.PrimaryVN(), sess.Lag())
		}
	}
}

// ErrorCode recovers every wire code from a server error, wrapped or not,
// and codes produced by a real server reach the caller intact.
func TestErrorCodeMapsEveryCode(t *testing.T) {
	codes := []Code{
		server.CodeBadFrame, server.CodeBadVersion, server.CodeParse, server.CodeExec,
		server.CodeNoSession, server.CodeSessionExpired, server.CodeSessionClosed,
		server.CodeNoStatement, server.CodeBatch, server.CodeDraining, server.CodeTooBusy,
		server.CodeInternal, server.CodeNotPrimary, server.CodeReadOnly, server.CodeReplRange,
	}
	for i, code := range codes {
		if int(code) != i+1 {
			t.Fatalf("code list is not the dense wire range: %v at %d", code, i)
		}
		if strings.HasPrefix(code.String(), "ErrCode(") {
			t.Errorf("code %d has no name", code)
		}
		for _, err := range []error{
			&Error{Code: code, Msg: "m"},
			fmt.Errorf("context: %w", &Error{Code: code, Msg: "m"}),
		} {
			if got, ok := ErrorCode(err); !ok || got != code {
				t.Errorf("ErrorCode(%v) = %v, %v; want %v", err, got, ok, code)
			}
		}
	}
	if _, ok := ErrorCode(ErrClosed); ok {
		t.Error("ErrorCode found a wire code in a client-side error")
	}
	if _, ok := ErrorCode(nil); ok {
		t.Error("ErrorCode found a wire code in nil")
	}

	srv := startServer(t, 4)
	c := dial(t, srv, Options{})
	wantCode := func(what string, err error, want Code) {
		t.Helper()
		if got, ok := ErrorCode(err); !ok || got != want {
			t.Errorf("%s: error %v, want code %v", what, err, want)
		}
	}
	_, err := c.Query("SELEC k FROM kv", nil)
	wantCode("parse", err, server.CodeParse)
	_, err = (&Stmt{c: c, id: 999}).Query(nil)
	wantCode("unknown statement", err, server.CodeNoStatement)
	_, err = c.PollRepl(0, 0, 0, 0, 0)
	wantCode("poll a non-primary", err, server.CodeNotPrimary)
	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for k := int64(1); k <= 2; k++ {
		if _, err := c.ApplyBatch([]Delta{{Table: "kv", Op: DeltaUpdate,
			Row: catalog.Tuple{catalog.NewInt(k), catalog.NewInt(0)}, Key: catalog.Tuple{catalog.NewInt(k)}}}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = sess.Query(pointSQL, Params{"k": catalog.NewInt(1)})
	wantCode("session two versions behind", err, server.CodeSessionExpired)
}

// After a result of about 1 MiB, and a request of about 1 MiB, the client
// connection keeps no buffer above server.MaxRetainedFrame.
func TestClientBuffersHaveACeiling(t *testing.T) {
	srv := startServer(t, 4)
	c := dial(t, srv, Options{})
	body := strings.Repeat("x", 4096)
	deltas := make([]Delta, 256)
	for i := range deltas {
		deltas[i] = Delta{Table: "doc", Op: DeltaInsert,
			Row: catalog.Tuple{catalog.NewInt(int64(i)), catalog.NewString(body)}}
	}
	if _, err := c.ApplyBatch(deltas); err != nil {
		t.Fatal(err)
	}
	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rows, err := sess.Query("SELECT k, body FROM doc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Tuples) != len(deltas) || rows.Tuples[0][1].Str() != body {
		t.Fatalf("got %d rows", len(rows.Tuples))
	}
	if r, w := cap(sess.wc.rbuf), cap(sess.wc.wbuf); r > server.MaxRetainedFrame || w > server.MaxRetainedFrame {
		t.Fatalf("after a 1 MiB result the connection keeps a %d-byte read and a %d-byte encode buffer; the cap is %d",
			r, w, server.MaxRetainedFrame)
	}
	// The buffers still serve small frames afterwards.
	rows, err = sess.Query(pointSQL, Params{"k": catalog.NewInt(3)})
	if err := checkPoint(rows, err, 3); err != nil {
		t.Fatal(err)
	}
	if cap(sess.wc.rbuf) == 0 || cap(sess.wc.wbuf) == 0 {
		t.Fatal("small frames no longer reuse the connection's buffers")
	}
}

// The allocation pin for a prepared point read over the loopback wire,
// client and server together: the encode and read buffers, the session
// version bound without a parameter map, the server's reused parameter map
// and the shared column names leave about ten allocations per round trip
// (36 before they existed), and the server's encoding of the row as the
// plan projects it leaves eight (11 while it built an exec.Rows first). The
// limit leaves a little room; raising it needs a reason.
func TestQueryStmtRoundTripAllocations(t *testing.T) {
	srv := startServer(t, 64)
	c := dial(t, srv, Options{})
	st, err := c.Prepare(pointSQL)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	params := Params{"k": catalog.NewInt(7)}
	for i := 0; i < 16; i++ {
		if _, err := sess.QueryStmt(st, params); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		rows, err := sess.QueryStmt(st, params)
		if err := checkPoint(rows, err, 7); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per round trip", allocs)
	if allocs > roundTripAllocLimit {
		t.Fatalf("%.1f allocations per prepared point read over the wire; the limit is %d", allocs, roundTripAllocLimit)
	}
}

const roundTripAllocLimit = 9
