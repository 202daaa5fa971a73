package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/catalog"
)

// TestSessionExpirationTimeline walks the 2VNL lifecycle of §2.1: a session
// survives the maintenance transaction that runs concurrently with it and
// the gap after that transaction commits, and expires the moment a second
// maintenance transaction begins.
func TestSessionExpirationTimeline(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession() // sessionVN = 1
	defer sess.Close()
	if sess.Expired() {
		t.Fatal("fresh session expired")
	}
	m := mustMaint(t, s) // t2 running
	if sess.Expired() {
		t.Fatal("session expired during its first overlapping maintenance transaction")
	}
	commit(t, m) // currentVN = 2
	if sess.Expired() {
		t.Fatal("session expired after one maintenance commit (should read the previous version)")
	}
	m = mustMaint(t, s) // t3 begins: version 1 expires
	if !sess.Expired() {
		t.Fatal("session must expire when a second maintenance transaction begins (§2.1)")
	}
	if err := sess.Check(); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("Check = %v", err)
	}
	if _, err := sess.Query(`SELECT k FROM kv`, nil); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("Query on expired session = %v", err)
	}
	commit(t, m)
	// A new session is fine.
	s2 := s.BeginSession()
	defer s2.Close()
	if s2.VN() != 3 || s2.Expired() {
		t.Errorf("new session VN=%d expired=%v", s2.VN(), s2.Expired())
	}
}

// TestNVNLSessionSurvivesMoreTransactions checks §5's guarantee: under
// nVNL a session survives overlapping up to n−1 maintenance transactions.
func TestNVNLSessionSurvivesMoreTransactions(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		s := newStore(t, n)
		if _, err := s.CreateTable(kvSchema()); err != nil {
			t.Fatal(err)
		}
		sess := s.BeginSession() // VN 1
		overlapped := 0
		for i := 0; ; i++ {
			m := mustMaint(t, s)
			if sess.Expired() {
				m.Rollback()
				break
			}
			overlapped++
			commit(t, m)
			if sess.Expired() {
				t.Errorf("n=%d: session expired after commit #%d; expiry should happen when the next txn begins", n, i+1)
				break
			}
			if overlapped > n {
				t.Fatalf("n=%d: session still alive after overlapping %d transactions", n, overlapped)
			}
		}
		if overlapped != n-1 {
			t.Errorf("n=%d: session overlapped %d maintenance transactions, want n-1 = %d", n, overlapped, n-1)
		}
		sess.Close()
	}
}

// TestSessionReadsStableAcrossMaintenance is the paper's motivating
// scenario (Example 2.1): an analyst's drill-down must agree with the
// earlier roll-up even while a maintenance transaction rewrites the data.
func TestSessionReadsStableAcrossMaintenance(t *testing.T) {
	s := newStore(t, 2)
	setupFigure4(t, s).Close()
	sess := s.BeginSession() // VN 4
	defer sess.Close()

	total := func() int64 {
		rows, err := sess.Query(`SELECT SUM(total_sales) FROM DailySales WHERE city = 'San Jose' AND state = 'CA'`, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Tuples[0][0].Int()
	}
	byLine := func() int64 {
		rows, err := sess.Query(`SELECT product_line, SUM(total_sales)
			FROM DailySales WHERE city = 'San Jose' AND state = 'CA'
			GROUP BY product_line`, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, tu := range rows.Tuples {
			sum += tu[1].Int()
		}
		return sum
	}
	before := total()
	// Maintenance churns San Jose rows while the session is analyzing.
	m := mustMaint(t, s)
	if _, err := m.Exec(`UPDATE DailySales SET total_sales = total_sales + 5000 WHERE city = 'San Jose'`, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("DailySales", salesTuple(t, "San Jose", "skis", "10/16/96", 2000)); err != nil {
		t.Fatal(err)
	}
	if mid := total(); mid != before {
		t.Errorf("roll-up changed mid-session: %d -> %d", before, mid)
	}
	if drill := byLine(); drill != before {
		t.Errorf("drill-down (%d) does not add up to roll-up (%d) during maintenance", drill, before)
	}
	commit(t, m)
	// Still the same after commit (session reads the previous version).
	if after := total(); after != before {
		t.Errorf("roll-up changed after maintenance commit: %d -> %d", before, after)
	}
	// A new session sees the new state.
	s2 := s.BeginSession()
	defer s2.Close()
	rows, _ := s2.Query(`SELECT SUM(total_sales) FROM DailySales WHERE city = 'San Jose' AND state = 'CA'`, nil)
	if got := rows.Tuples[0][0].Int(); got != before+2*5000+2000 {
		t.Errorf("new session total = %d, want %d", got, before+10000+2000)
	}
}

// TestConcurrentReadersDuringMaintenance runs reader sessions concurrently
// with maintenance transactions that preserve an invariant (the sum over
// all tuples is constant), asserting every reader always observes the
// invariant — the serializability guarantee, with no locks anywhere.
func TestConcurrentReadersDuringMaintenance(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	const tuples = 20
	const invariantSum = int64(tuples * 100)
	m := mustMaint(t, s)
	for k := int64(0); k < tuples; k++ {
		if err := m.Insert("kv", kvTuple(k, 100)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)

	var readers, writer sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)

	// Writer: repeatedly moves value between pairs, preserving the sum.
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m, err := s.BeginMaintenance()
			if err != nil {
				errCh <- err
				return
			}
			a := int64(i % tuples)
			b := int64((i + 7) % tuples)
			delta := int64(10)
			for _, kv := range []struct {
				k, d int64
			}{{a, -delta}, {b, +delta}} {
				kv := kv
				if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(kv.k)},
					func(c catalog.Tuple) catalog.Tuple {
						c[1] = catalog.NewInt(c[1].Int() + kv.d)
						return c
					}); err != nil {
					errCh <- err
					m.Rollback()
					return
				}
			}
			if err := m.Commit(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// Readers: every query within a session must see the invariant; a
	// session is retried fresh when it expires (expected behaviour).
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				sess := s.BeginSession()
				rows, err := sess.Query(`SELECT SUM(v), COUNT(*) FROM kv`, nil)
				if errors.Is(err, ErrSessionExpired) {
					sess.Close()
					continue
				}
				if err != nil {
					errCh <- err
					sess.Close()
					return
				}
				sum, count := rows.Tuples[0][0].Int(), rows.Tuples[0][1].Int()
				if sum != invariantSum || count != tuples {
					errCh <- errors.New("reader observed inconsistent state")
					sess.Close()
					return
				}
				sess.Close()
			}
		}()
	}
	readers.Wait() // the writer churns the whole time readers run
	close(stop)
	writer.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionClosedAndGet covers Close semantics and the keyed Get path.
func TestSessionClosedAndGet(t *testing.T) {
	s := newStore(t, 2)
	setupFigure4(t, s).Close()
	sess := s.BeginSession()
	key := catalog.Tuple{catalog.NewString("Berkeley"), catalog.NewString("CA"), catalog.NewString("racquetball"), date(t, "10/14/96")}
	tu, visible, err := sess.Get("DailySales", key)
	if err != nil || !visible || tu[4].Int() != 12000 {
		t.Fatalf("Get = %v %v %v", tu, visible, err)
	}
	// Missing key.
	_, visible, err = sess.Get("DailySales", catalog.Tuple{catalog.NewString("Nowhere"), catalog.NewString("CA"), catalog.NewString("x"), date(t, "10/14/96")})
	if err != nil || visible {
		t.Errorf("missing key = %v %v", visible, err)
	}
	// Unregistered table.
	if _, _, err := sess.Get("nope", key); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unregistered Get err = %v", err)
	}
	if err := sess.Scan("nope", nil); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unregistered Scan err = %v", err)
	}
	sess.Close()
	sess.Close() // idempotent
	if err := sess.Check(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("closed Check = %v", err)
	}
	if _, err := sess.Query(`SELECT city FROM DailySales`, nil); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("closed Query = %v", err)
	}
	if s.ActiveSessions() != 0 {
		t.Errorf("ActiveSessions = %d", s.ActiveSessions())
	}
}

// TestQueryJoinVersionedWithPlainTable joins a versioned relation with an
// ordinary one; only the versioned side is rewritten.
func TestQueryJoinVersionedWithPlainTable(t *testing.T) {
	s := newStore(t, 2)
	setupFigure4(t, s).Close()
	if _, err := s.DB().Exec(`CREATE TABLE Regions (state VARCHAR(2), region VARCHAR(8), UNIQUE KEY(state))`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec(`INSERT INTO Regions VALUES ('CA', 'west')`, nil); err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession() // VN 4
	defer sess.Close()
	rows, err := sess.Query(`SELECT r.region, SUM(d.total_sales)
		FROM DailySales d JOIN Regions r ON d.state = r.state
		GROUP BY r.region`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Tuples[0][0].Str() != "west" {
		t.Fatalf("join:\n%s", rows)
	}
	// VN 4 view: 10000 + 1500 + 12000 (Novato deleted).
	if got := rows.Tuples[0][1].Int(); got != 23500 {
		t.Errorf("join sum = %d, want 23500", got)
	}
	// Star expansion over a versioned table yields base columns only.
	rows, err = sess.Query(`SELECT * FROM DailySales`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 5 {
		t.Errorf("star columns = %v (must hide bookkeeping columns)", rows.Columns)
	}
	for _, c := range rows.Columns {
		if c == colTupleVN || c == colOperation {
			t.Errorf("star leaked bookkeeping column %q", c)
		}
	}
}
