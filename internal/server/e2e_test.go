package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/pkg/vnlclient"
)

// startServer runs an in-process vnlserver on an ephemeral port over a fresh
// store with the kv table, and registers cleanup.
func startServer(t testing.TB, opts ...func(*server.Config)) (*server.Server, *core.Store) {
	t.Helper()
	// One registry for both store and server, mirroring cmd/vnlserver (both
	// default to obs.Default() there): /metrics then exports the store's
	// counters — plan cache included — next to the wire counters.
	reg := obs.NewRegistry()
	store, err := core.Open(db.Open(db.Options{}), core.Options{N: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTableSQL(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`); err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Addr: "127.0.0.1:0", Store: store, Metrics: reg, Logf: t.Logf}
	for _, f := range opts {
		f(&cfg)
	}
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, store
}

func dialServer(t testing.TB, srv *server.Server, opts vnlclient.Options) *vnlclient.Client {
	t.Helper()
	c, err := vnlclient.Dial(srv.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func kvInsert(k, v int64) vnlclient.Delta {
	return vnlclient.Delta{Table: "kv", Op: vnlclient.DeltaInsert,
		Row: catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)}}
}

func kvUpdate(k, v int64) vnlclient.Delta {
	return vnlclient.Delta{Table: "kv", Op: vnlclient.DeltaUpdate,
		Row: catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)},
		Key: catalog.Tuple{catalog.NewInt(k)}}
}

// The tentpole property over the wire: a TCP reader session opened before a
// maintenance batch commits still scans its original version after the
// commit, matching an embedded session opened at the same version, while a
// fresh wire session sees the new version.
func TestSessionPinsVersionAcrossCommit(t *testing.T) {
	srv, store := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{})

	if _, err := c.ApplyBatch([]vnlclient.Delta{kvInsert(1, 10), kvInsert(2, 20)}); err != nil {
		t.Fatal(err)
	}

	// Wire session and embedded oracle session open at the same version.
	wireSess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer wireSess.Close()
	oracle := store.BeginSession()
	defer oracle.Close()
	if got, want := wireSess.VN(), uint64(oracle.VN()); got != want {
		t.Fatalf("wire session at VN %d, embedded oracle at %d", got, want)
	}

	const q = `SELECT k, v FROM kv ORDER BY k`
	before, err := wireSess.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Maintenance commits over the same wire.
	res, err := c.ApplyBatch([]vnlclient.Delta{kvUpdate(1, 11), kvInsert(3, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 {
		t.Fatalf("batch applied %d ops, want 2", res.Applied)
	}

	after, err := wireSess.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Tuples) != fmt.Sprint(want.Tuples) {
		t.Fatalf("wire session scan %v diverged from embedded oracle %v", after.Tuples, want.Tuples)
	}
	if fmt.Sprint(after.Tuples) != fmt.Sprint(before.Tuples) {
		t.Fatalf("wire session moved across the commit: %v -> %v", before.Tuples, after.Tuples)
	}

	// A fresh one-shot query sees the committed state.
	fresh, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fresh.Tuples) == fmt.Sprint(before.Tuples) {
		t.Fatal("fresh query still sees the pre-commit state")
	}
}

// Prepared statements work across connections and inside sessions, and
// session queries through them stay pinned.
func TestPreparedOverWire(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{})
	if _, err := c.ApplyBatch([]vnlclient.Delta{kvInsert(1, 10)}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(`SELECT COUNT(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Tuples[0][0].Int() != 1 {
		t.Fatalf("count %v, want 1", rows.Tuples[0][0])
	}

	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := c.ApplyBatch([]vnlclient.Delta{kvInsert(2, 20)}); err != nil {
		t.Fatal(err)
	}
	pinned, err := sess.QueryStmt(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Tuples[0][0].Int() != 1 {
		t.Fatalf("session count moved to %v across a commit", pinned.Tuples[0][0])
	}
	moved, err := st.Query(nil)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Tuples[0][0].Int() != 2 {
		t.Fatalf("one-shot count %v, want 2", moved.Tuples[0][0])
	}

	// Params flow through the prepared path.
	pst, err := c.Prepare(`SELECT v FROM kv WHERE k = :k`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = pst.Query(vnlclient.Params{"k": catalog.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Tuples) != 1 || rows.Tuples[0][0].Int() != 20 {
		t.Fatalf("parameterized prepared query answered %v", rows.Tuples)
	}
}

// The statement table is bounded: a client that inlines literals fills it and
// is then refused with too_busy, while every id already granted — and a
// re-Prepare of a known text, which needs no new slot — keeps working.
func TestStatementTableBounded(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{})
	if _, err := c.ApplyBatch([]vnlclient.Delta{kvInsert(0, 7)}); err != nil {
		t.Fatal(err)
	}
	var granted []*vnlclient.Stmt
	var full error
	for i := 0; full == nil; i++ {
		if i > 1<<16 {
			t.Fatal("65536 distinct statements prepared and the table never filled")
		}
		st, err := c.Prepare(fmt.Sprintf(`SELECT v FROM kv WHERE k = %d`, i))
		if err != nil {
			full = err
			break
		}
		granted = append(granted, st)
	}
	if code, ok := vnlclient.ErrorCode(full); !ok || code != vnlclient.CodeTooBusy {
		t.Fatalf("a full statement table answered %v, want code %v", full, vnlclient.CodeTooBusy)
	}
	if _, err := c.Prepare(`SELECT v FROM kv WHERE k = 0`); err != nil {
		t.Fatalf("re-Prepare of a granted statement: %v", err)
	}
	if rows, err := granted[0].Query(nil); err != nil || len(rows.Tuples) != 1 || rows.Tuples[0][0].Int() != 7 {
		t.Fatalf("first granted statement answered %v, %v", rows, err)
	}
	if _, err := granted[len(granted)-1].Query(nil); err != nil {
		t.Fatalf("last granted statement: %v", err)
	}
}

// Concurrent clients issue queries and sessions while maintenance batches
// commit; run under -race this doubles as the data-race check for the whole
// serving path.
func TestConcurrentClientsAcrossMaintenance(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{MaxIdle: 8})
	seed := make([]vnlclient.Delta, 50)
	for i := range seed {
		seed[i] = kvInsert(int64(i), int64(i))
	}
	if _, err := c.ApplyBatch(seed); err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		writers = 2
		rounds  = 15
	)
	errc := make(chan error, readers+writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := c.ApplyBatch([]vnlclient.Delta{kvUpdate(int64(r%50), int64(w*1000+r))}); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sess, err := c.Begin()
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				count := int64(-1)
				for i := 0; i < 3; i++ {
					rows, err := sess.Query(`SELECT COUNT(*) FROM kv`, nil)
					if code, ok := vnlclient.ErrorCode(err); ok && code == vnlclient.CodeSessionExpired {
						break // legal under 2VNL overlap; reopen next round
					}
					if err != nil {
						errc <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
					got := rows.Tuples[0][0].Int()
					if count >= 0 && got != count {
						errc <- fmt.Errorf("reader %d: count moved %d -> %d inside one session", g, count, got)
						return
					}
					count = got
				}
				if err := sess.Close(); err != nil {
					errc <- fmt.Errorf("reader %d close: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// Graceful drain: Shutdown lets a connection with an open session keep
// querying until the session closes, then returns with zero dropped
// requests.
func TestGracefulDrain(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{DialAttempts: 1})
	if _, err := c.ApplyBatch([]vnlclient.Delta{kvInsert(1, 10)}); err != nil {
		t.Fatal(err)
	}
	sess, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// The server must refuse new connections while draining...
	deadline := time.Now().Add(2 * time.Second)
	for {
		if !srv.Ready() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server still ready after Shutdown started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := vnlclient.Dial(srv.Addr().String(), vnlclient.Options{DialAttempts: 1}); err == nil {
		t.Fatal("dial succeeded while draining")
	}

	// ...while the open session keeps answering on its live connection.
	for i := 0; i < 3; i++ {
		rows, err := sess.Query(`SELECT COUNT(*) FROM kv`, nil)
		if err != nil {
			t.Fatalf("in-flight query %d dropped during drain: %v", i, err)
		}
		if rows.Tuples[0][0].Int() != 1 {
			t.Fatalf("query %d answered %v during drain", i, rows.Tuples[0][0])
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("session close during drain: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}
}

// The drain deadline is enforced: a session that never closes is
// force-closed and Shutdown reports it.
func TestDrainDeadlineForcesStragglers(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{DialAttempts: 1})
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown reported a clean drain despite an abandoned session")
	}
}

// The RequestTimeout watchdog stops cleanly however the server is stopped:
// Close and Shutdown, each twice and in either order, straight after Start.
// Under -race this is the regression test for the watchdog selecting on a
// stop channel that Close reassigned.
func TestWatchdogStopsWithServer(t *testing.T) {
	shutdown := func(s *server.Server) { _ = s.Shutdown(context.Background()) }
	closeSrv := func(s *server.Server) { _ = s.Close() }
	for name, stops := range map[string][]func(*server.Server){
		"close twice":         {closeSrv, closeSrv},
		"shutdown twice":      {shutdown, shutdown},
		"shutdown then close": {shutdown, closeSrv},
		"close then shutdown": {closeSrv, shutdown},
	} {
		t.Run(name, func(t *testing.T) {
			srv, _ := startServer(t, func(c *server.Config) { c.RequestTimeout = 4 * time.Millisecond })
			c := dialServer(t, srv, vnlclient.Options{DialAttempts: 1})
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			_ = c.Close()
			for _, stop := range stops {
				stop(srv)
			}
		})
	}
}

// Max-conns backpressure: with the limit filled by pinned sessions, the next
// dial is answered with an explicit too_busy rejection, and the slot frees
// when a session closes.
func TestMaxConnsBackpressure(t *testing.T) {
	srv, _ := startServer(t, func(cfg *server.Config) { cfg.MaxConns = 2 })
	c := dialServer(t, srv, vnlclient.Options{DialAttempts: 1, MaxIdle: 4})
	// Sessions pin their connections, holding both slots.
	s1, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_, err = vnlclient.Dial(srv.Addr().String(), vnlclient.Options{DialAttempts: 1})
	if err == nil {
		t.Fatal("dial succeeded past the connection limit")
	}
	if code, ok := vnlclient.ErrorCode(err); !ok || code != vnlclient.CodeTooBusy {
		t.Fatalf("over-limit dial failed with %v, want an explicit %v rejection", err, vnlclient.CodeTooBusy)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// Ending the session returns its connection to the client's pool, which
	// keeps the server-side slot occupied; closing the client drops the
	// pooled connection and frees the slot.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The freed slot admits a retrying dial (the client's backoff covers the
	// small window where the server has not yet reaped the closed conn).
	c2, err := vnlclient.Dial(srv.Addr().String(), vnlclient.Options{DialAttempts: 5, RetryBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial after freeing a slot: %v", err)
	}
	_ = c2.Close()
}

// Wire errors carry the right codes: parse failures, unknown sessions,
// unknown statements, bad batches.
func TestWireErrorCodes(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{})

	_, err := c.Query(`SELEC nonsense`, nil)
	if code, ok := vnlclient.ErrorCode(err); !ok || code != vnlclient.CodeParse {
		t.Fatalf("garbage SQL answered %v, want code %v", err, vnlclient.CodeParse)
	}
	_, err = c.Query(`SELECT x FROM no_such_table`, nil)
	if code, ok := vnlclient.ErrorCode(err); !ok || code != vnlclient.CodeExec {
		t.Fatalf("missing table answered %v, want code %v", err, vnlclient.CodeExec)
	}
	_, err = c.ApplyBatch([]vnlclient.Delta{{Table: "no_such_table", Op: vnlclient.DeltaInsert,
		Row: catalog.Tuple{catalog.NewInt(1)}}})
	if err == nil {
		t.Fatal("batch against a missing table succeeded")
	}
}

// The HTTP sidecar exports metrics and readiness.
func TestHTTPSidecar(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!contains(body, "server_requests_total") || !contains(body, "server_conns_accepted_total") {
		t.Fatalf("/metrics answered %d: %.200s", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !contains(body, `"server_requests_total"`) {
		t.Fatalf("/metrics?format=json answered %d: %.200s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz answered %d", code)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz answered %d before drain", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz answered %d while drained, want 503", code)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz answered %d while drained (liveness must hold)", code)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// The plan cache serves the server's ad-hoc MsgQuery path, and its hit/miss
// counters are scrapeable from /metrics: the first wire query misses (parse +
// rewrite + compile), repeats of the same text hit without touching the
// parser.
func TestPlanCacheCountersOnWire(t *testing.T) {
	srv, store := startServer(t)
	c := dialServer(t, srv, vnlclient.Options{})
	if _, err := c.ApplyBatch([]vnlclient.Delta{kvInsert(1, 10), kvInsert(2, 20)}); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT k, v FROM kv WHERE k >= 1`
	for i := 0; i < 3; i++ {
		rows, err := c.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Tuples) != 2 {
			t.Fatalf("query %d returned %d rows, want 2", i, len(rows.Tuples))
		}
	}

	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	hits := counterValue(t, string(body), "core_plan_cache_hits_total")
	misses := counterValue(t, string(body), "core_plan_cache_misses_total")
	if misses < 1 {
		t.Fatalf("plan cache misses = %d after a fresh query, want >= 1", misses)
	}
	if hits < 2 {
		t.Fatalf("plan cache hits = %d after two repeats, want >= 2", hits)
	}
	// The wire counters agree with the store registry they are mirrored from.
	snap := store.Metrics().Snapshot()
	if snap.Counters["core_plan_cache_hits_total"] != hits {
		t.Fatalf("/metrics hits %d != store registry %d", hits, snap.Counters["core_plan_cache_hits_total"])
	}
}

// counterValue extracts one counter from the /metrics text export
// ("name value" per line).
func counterValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("counter %s: unparseable value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("counter %s missing from /metrics output:\n%s", name, body)
	return 0
}
