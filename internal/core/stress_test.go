package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
)

// stressTuples and stressSum define the invariant the stress harness
// checks: maintenance transactions only move value between keys, so every
// consistent read of the table sums to stressSum.
const (
	stressTuples = 16
	stressSum    = int64(stressTuples * 100)
)

// TestStressReadersDuringMaintenance is the concurrency proof for the
// lock-free read path: many reader goroutines hammer pre-parsed queries
// while one maintenance loop commits and rolls back (logless, §7)
// transactions. Run it under -race (the CI stress job does); the invariant
// checks catch logical races, the race detector catches memory ones.
func TestStressReadersDuringMaintenance(t *testing.T) {
	t.Run("logless-memory", runStress)
}

func runStress(t *testing.T) {
	reg := obs.NewRegistry()
	s := newStore(t, 2, func(o *Options) { o.Metrics = reg })
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < stressTuples; k++ {
		if err := m.Insert("kv", kvTuple(k, 100)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)

	sel, err := sql.ParseSelect(`SELECT SUM(v), COUNT(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	iterations := 250
	if testing.Short() {
		iterations = 60
	}

	var wgReaders, wgWriter sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)

	// Writer: move value between key pairs; roll back every fifth
	// transaction so both the commit and the rollback paths race readers.
	wgWriter.Add(1)
	go func() {
		defer wgWriter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m, err := s.BeginMaintenance()
			if err != nil {
				errCh <- fmt.Errorf("writer begin: %w", err)
				return
			}
			a, b := int64(i%stressTuples), int64((i+7)%stressTuples)
			for _, mv := range []struct{ k, d int64 }{{a, -10}, {b, +10}} {
				mv := mv
				if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(mv.k)},
					func(c catalog.Tuple) catalog.Tuple {
						c[1] = catalog.NewInt(c[1].Int() + mv.d)
						return c
					}); err != nil {
					errCh <- fmt.Errorf("writer update: %w", err)
					m.Rollback()
					return
				}
			}
			var fin error
			if i%5 == 4 {
				fin = m.Rollback()
			} else {
				fin = m.Commit()
			}
			if fin != nil {
				errCh <- fmt.Errorf("writer finish: %w", fin)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func() {
			defer wgReaders.Done()
			for i := 0; i < iterations; i++ {
				sess := s.BeginSession()
				for q := 0; q < 3; q++ {
					rows, err := sess.QueryStmt(sel, nil)
					if errors.Is(err, ErrSessionExpired) {
						break // expected under churn; begin a fresh session
					}
					if err != nil {
						errCh <- fmt.Errorf("reader query: %w", err)
						sess.Close()
						return
					}
					sum, count := rows.Tuples[0][0].Int(), rows.Tuples[0][1].Int()
					if sum != stressSum || count != stressTuples {
						errCh <- fmt.Errorf("reader observed inconsistent state: sum=%d count=%d (session VN %d)", sum, count, sess.VN())
						sess.Close()
						return
					}
					if err := sess.Check(); err != nil && !errors.Is(err, ErrSessionExpired) {
						errCh <- fmt.Errorf("reader check: %w", err)
						sess.Close()
						return
					}
				}
				sess.Close()
			}
		}()
	}
	wgReaders.Wait() // the writer churns the whole time readers run
	close(stop)
	wgWriter.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Quiesced: the invariant holds for a fresh session, every session is
	// unregistered, and the Add-based gauge agrees with the registry.
	sess := s.BeginSession()
	rows, err := sess.QueryStmt(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum := rows.Tuples[0][0].Int(); sum != stressSum {
		t.Errorf("final sum = %d, want %d", sum, stressSum)
	}
	sess.Close()
	if n := s.ActiveSessions(); n != 0 {
		t.Errorf("ActiveSessions = %d after quiesce", n)
	}
	if g := reg.GaugeValue("core_sessions_active"); g != 0 {
		t.Errorf("core_sessions_active gauge = %d after quiesce", g)
	}
	// Watermarks survived the churn (commits, rollbacks) exactly.
	for _, vt := range s.Tables() {
		assertWatermark(t, s, vt)
	}
}

// TestAggregateConservationUnderMaintenance races the compiled aggregate's
// fold — which reads each stored tuple under its page latch and copies none —
// against batched maintenance. Every batch moves amount between row pairs and
// inserts then deletes fresh rows, so COUNT(*) and SUM(amount) never change;
// every fourth batch rolls back and GC runs between batches. A session must
// read the invariant through the plain and the grouped aggregate, or be told
// it expired: a torn, skipped or double-counted tuple breaks it. Run it under
// -race (make stress does).
func TestAggregateConservationUnderMaintenance(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			runConservation(t, n)
		})
	}
}

func runConservation(t *testing.T, n int) {
	const (
		rows   = 64
		groups = 8
		total  = int64(rows * 100)
	)
	s := newStore(t, n)
	if _, err := s.CreateTable(catalog.MustSchema("fact", []catalog.Column{
		{Name: "id", Type: catalog.TypeInt, Length: 8},
		{Name: "grp", Type: catalog.TypeInt, Length: 8},
		{Name: "amount", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "id")); err != nil {
		t.Fatal(err)
	}
	row := func(id, amount int64) catalog.Tuple {
		return catalog.Tuple{catalog.NewInt(id), catalog.NewInt(id % groups), catalog.NewInt(amount)}
	}
	amounts := make([]int64, rows) // the writer's model of the committed state
	m := mustMaint(t, s)
	for id := range amounts {
		amounts[id] = 100
		if err := m.Insert("fact", row(int64(id), 100)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)

	batches := 40
	if testing.Short() {
		batches = 10
	}
	const readers = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers+1) // one send at most per goroutine

	// The writer runs a fixed number of batches; readers read until it stops.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		fresh := int64(1 << 20)
		for i := 0; i < batches; i++ {
			next := append([]int64(nil), amounts...)
			var deltas []Delta
			for j := 0; j < 8; j++ {
				a, b := (i*7+j*5)%rows, (i*3+j*11+1)%rows
				if a == b {
					continue
				}
				d := int64(i%13 + j)
				next[a] -= d
				next[b] += d
				for _, id := range []int{a, b} {
					deltas = append(deltas, Delta{Table: "fact", Op: DeltaUpdate,
						Row: row(int64(id), next[id]), Key: catalog.Tuple{catalog.NewInt(int64(id))}})
				}
			}
			for j := 0; j < 4; j++ {
				deltas = append(deltas,
					Delta{Table: "fact", Op: DeltaInsert, Row: row(fresh, 1000)},
					Delta{Table: "fact", Op: DeltaDelete, Key: catalog.Tuple{catalog.NewInt(fresh)}})
				fresh++
			}
			m, err := s.BeginMaintenance()
			if err != nil {
				errCh <- fmt.Errorf("writer begin: %w", err)
				return
			}
			if _, err := m.ApplyBatch(deltas); err != nil {
				errCh <- fmt.Errorf("writer batch: %w", err)
				_ = m.Rollback() // the batch error is the one reported
				return
			}
			if i%4 == 3 {
				err = m.Rollback()
			} else if err = m.Commit(); err == nil {
				amounts = next
			}
			if err != nil {
				errCh <- fmt.Errorf("writer finish: %w", err)
				return
			}
			s.GC()
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := readConserved(s, rows, total); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := readConserved(s, rows, total); err != nil {
		t.Fatal(err)
	}
}

// readConserved runs one session of aggregate reads and checks each against
// the invariant; an expired session ends early and is no error.
func readConserved(s *Store, rows, total int64) error {
	sess := s.BeginSession()
	defer sess.Close()
	for q := 0; q < 4; q++ {
		plain, err := sess.Query(`SELECT COUNT(*), SUM(amount) FROM fact`, nil)
		if errors.Is(err, ErrSessionExpired) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reader: %w", err)
		}
		if c, sum := plain.Tuples[0][0].Int(), plain.Tuples[0][1].Int(); c != rows || sum != total {
			return fmt.Errorf("session VN %d read COUNT(*) = %d, SUM(amount) = %d; want %d, %d", sess.VN(), c, sum, rows, total)
		}
		grouped, err := sess.Query(`SELECT grp, COUNT(*), SUM(amount) FROM fact GROUP BY grp`, nil)
		if errors.Is(err, ErrSessionExpired) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reader: %w", err)
		}
		var c, sum int64
		for _, g := range grouped.Tuples {
			c += g[1].Int()
			sum += g[2].Int()
		}
		if c != rows || sum != total {
			return fmt.Errorf("session VN %d read %d groups totalling COUNT %d, SUM %d; want %d, %d", sess.VN(), len(grouped.Tuples), c, sum, rows, total)
		}
	}
	return nil
}

// TestCompiledMatchesOracleUnderMaintenance races compiled plans — scan,
// index and aggregate, with WHEREs the clean-page kernel runs and ones it
// does not, a LIMIT that ends a scan mid-page and a projection that reads
// more columns than its WHERE, both run in place under the page latch, and
// GROUP BYs the typed fold reads from the page image, on dirty pages too —
// against a live writer whose batches update, delete, re-insert
// over deletes, and fold update→delete and insert→delete within a batch, so
// the tuples a reader meets are the ones being rewritten. Small pages spread
// the table over many, so a session's scan meets pages clean at its version
// beside ones the writer has dirtied, and a page can turn dirty between two
// scans of one session; the run fails if no session saw both. Each answer is
// checked against the §4.1 rewrite run through the tree-walker at the same
// session version; a session that expires meanwhile is replaced, since
// neither answer then binds. Run it under -race (make stress does).
func TestCompiledMatchesOracleUnderMaintenance(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			runOracleRace(t, n)
		})
	}
}

func runOracleRace(t *testing.T, n int) {
	const keys = 128
	s, err := Open(db.Open(db.Options{PageSize: 128}), Options{N: n})
	if err != nil {
		t.Fatal(err)
	}
	vt, err := s.CreateTable(kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int64]int64, keys) // the writer's model of the committed state
	m := mustMaint(t, s)
	for k := int64(0); k < keys; k++ {
		live[k] = 100 + k
		if err := m.Insert("kv", kvTuple(k, live[k])); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)

	// The writer runs at least batches batches, then goes on until the
	// readers have compared minChecked answers and some session has met
	// clean and dirty pages, so that no run passes having checked next to
	// nothing; maxBatches bounds a run whose readers cannot keep up, which
	// then fails.
	batches := 30
	if testing.Short() {
		batches = 8
	}
	const minChecked = 100
	maxBatches := 50 * batches
	queries := []*sql.SelectStmt{
		mustParse(t, `SELECT k, v FROM kv WHERE v < 160`),
		mustParse(t, `SELECT v FROM kv WHERE k = 40`),
		mustParse(t, `SELECT k / 16, COUNT(*), SUM(v), MAX(v) FROM kv GROUP BY k / 16`),
		mustParse(t, `SELECT k, v FROM kv WHERE v > 150 ORDER BY v, k LIMIT 10`),
		mustParse(t, `SELECT k, v FROM kv WHERE v >= :lo AND k <> 7`),
		mustParse(t, `SELECT COUNT(*), SUM(v), MIN(k) FROM kv WHERE v < :hi AND 20 <= k`),
		mustParse(t, `SELECT k, v FROM kv WHERE v < 170 LIMIT 5`),
		mustParse(t, `SELECT k, v, k * 2 + v, v - k FROM kv WHERE k >= 16`),
		mustParse(t, `SELECT v, COUNT(*), SUM(k), COUNT(v) FROM kv GROUP BY v`),
		mustParse(t, `SELECT v, COUNT(*), SUM(k), COUNT(v) FROM kv WHERE k < :hi GROUP BY v`),
	}
	const readers = 2
	var wg sync.WaitGroup
	var checked atomic.Int64 // answers compared while their session was live
	var mixed atomic.Int64   // sessions that met clean and dirty pages
	stop := make(chan struct{})
	errCh := make(chan error, readers+1) // one send at most per goroutine

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < batches || (checked.Load() < minChecked || mixed.Load() == 0) && i < maxBatches; i++ {
			next := make(map[int64]int64, len(live))
			for k, v := range live {
				next[k] = v
			}
			var deltas []Delta
			key := func(k int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k)} }
			for j := int64(0); j < 24; j++ {
				k := (int64(i)*37 + j*11) % keys
				v, ok := next[k]
				switch {
				case !ok: // re-insert over an earlier delete, or insert → delete
					deltas = append(deltas, Delta{Table: "kv", Op: DeltaInsert, Row: kvTuple(k, 100+j)})
					next[k] = 100 + j
					if j%3 == 0 {
						deltas = append(deltas, Delta{Table: "kv", Op: DeltaDelete, Key: key(k)})
						delete(next, k)
					}
				case j%4 == 0: // update → delete
					deltas = append(deltas,
						Delta{Table: "kv", Op: DeltaUpdate, Row: kvTuple(k, v+1), Key: key(k)},
						Delta{Table: "kv", Op: DeltaDelete, Key: key(k)})
					delete(next, k)
				default:
					deltas = append(deltas, Delta{Table: "kv", Op: DeltaUpdate, Row: kvTuple(k, v+j-12), Key: key(k)})
					next[k] = v + j - 12
				}
			}
			m, err := s.BeginMaintenance()
			if err != nil {
				errCh <- fmt.Errorf("writer begin: %w", err)
				return
			}
			if _, err := m.ApplyBatch(deltas); err != nil {
				errCh <- fmt.Errorf("writer batch: %w", err)
				_ = m.Rollback() // the batch error is the one reported
				return
			}
			if i%5 == 4 {
				err = m.Rollback()
			} else if err = m.Commit(); err == nil {
				live = next
			}
			if err != nil {
				errCh <- fmt.Errorf("writer finish: %w", err)
				return
			}
			s.GC()
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := readAgainstOracle(s, vt, queries, &checked, &mixed); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if c := checked.Load(); c < minChecked {
		t.Fatalf("%d answers compared in %d batches; want at least %d", c, maxBatches, minChecked)
	}
	if mixed.Load() == 0 {
		t.Fatal("no session met clean and dirty pages: the clean-page path was not raced")
	}
	t.Logf("%d answers compared, %d sessions met clean and dirty pages", checked.Load(), mixed.Load())
}

// readAgainstOracle runs one session's queries through the cached plans and
// through legacyAt; while the session is live the two must agree. It counts
// the session in mixed when, at its version, vt has both clean and dirty
// pages.
func readAgainstOracle(s *Store, vt *VTable, queries []*sql.SelectStmt, checked, mixed *atomic.Int64) error {
	sess := s.BeginSession()
	defer sess.Close()
	params := exec.Params{"lo": catalog.NewInt(110), "hi": catalog.NewInt(150)}
	clean, dirty, err := pagesAt(vt, sess.VN())
	if err != nil {
		return err
	}
	if clean > 0 && dirty > 0 {
		mixed.Add(1)
	}
	for _, q := range queries {
		got, gerr := sess.QueryStmt(q, params)
		want, werr := legacyAt(s, sess.VN(), q, params)
		if sess.Check() != nil {
			return nil // expired: neither answer binds
		}
		if diff := sameAnswer(got, gerr, want, werr); diff != "" {
			return fmt.Errorf("session VN %d %q: %s", sess.VN(), sql.Print(q), diff)
		}
		checked.Add(1)
	}
	return nil
}

// TestSessionSharedAcrossGoroutines uses one Session from many goroutines
// at once — queries, checks, gets — while maintenance advances the
// version, then closes it from every goroutine concurrently. The session's
// mutable state is atomic, so under -race this passes clean.
func TestSessionSharedAcrossGoroutines(t *testing.T) {
	reg := obs.NewRegistry()
	s := newStore(t, 2, func(o *Options) { o.Metrics = reg })
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < 8; k++ {
		if err := m.Insert("kv", kvTuple(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)

	sel, err := sql.ParseSelect(`SELECT COUNT(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.BeginSession()

	const users = 8
	var wg sync.WaitGroup
	errCh := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := sess.QueryStmt(sel, nil); err != nil &&
					!errors.Is(err, ErrSessionExpired) && !errors.Is(err, ErrSessionClosed) {
					errCh <- err
					return
				}
				if err := sess.Check(); err != nil &&
					!errors.Is(err, ErrSessionExpired) && !errors.Is(err, ErrSessionClosed) {
					errCh <- err
					return
				}
				if _, _, err := sess.Get("kv", catalog.Tuple{catalog.NewInt(int64(i % 8))}); err != nil &&
					!errors.Is(err, ErrSessionExpired) && !errors.Is(err, ErrSessionClosed) {
					errCh <- err
					return
				}
			}
		}()
	}
	// Advance the version underneath the shared session.
	m = mustMaint(t, s)
	if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(0)},
		func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(2); return c }); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Concurrent Close: exactly one wins, the rest are no-ops.
	var wgClose sync.WaitGroup
	for u := 0; u < users; u++ {
		wgClose.Add(1)
		go func() {
			defer wgClose.Done()
			sess.Close()
		}()
	}
	wgClose.Wait()
	if got := reg.CounterValue("core_sessions_closed_total"); got != 1 {
		t.Errorf("sessions closed counter = %d, want 1", got)
	}
	if g := reg.GaugeValue("core_sessions_active"); g != 0 {
		t.Errorf("core_sessions_active gauge = %d, want 0", g)
	}
	if err := sess.Check(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Check after concurrent Close = %v", err)
	}
}

// TestActiveSessionsGaugeTracksRegistry pins the Add-based gauge
// accounting: the gauge moves with every begin/close (idempotently for
// double closes) and always equals the sharded registry's count.
func TestActiveSessionsGaugeTracksRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s := newStore(t, 2, func(o *Options) { o.Metrics = reg })
	check := func(want int64) {
		t.Helper()
		if g := reg.GaugeValue("core_sessions_active"); g != want {
			t.Errorf("gauge = %d, want %d", g, want)
		}
		if n := int64(s.ActiveSessions()); n != want {
			t.Errorf("ActiveSessions = %d, want %d", n, want)
		}
	}
	var sessions []*Session
	for i := 0; i < 5; i++ {
		sessions = append(sessions, s.BeginSession())
	}
	check(5)
	sessions[0].Close()
	sessions[0].Close() // idempotent: must not decrement twice
	sessions[1].Close()
	check(3)
	for _, sess := range sessions[2:] {
		sess.Close()
	}
	check(0)
}
