package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// abStore is a store holding t (k KEY, a UPDATABLE, b UPDATABLE) with the
// given rows committed.
func abStore(t *testing.T, n int, rows ...[3]int64) *Store {
	t.Helper()
	s := newStore(t, n)
	if _, err := s.CreateTableSQL(`CREATE TABLE t (k INT(8), a INT(8) UPDATABLE, b INT(8) UPDATABLE, UNIQUE KEY(k))`); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for _, r := range rows {
		if err := m.Insert("t", catalog.Tuple{catalog.NewInt(r[0]), catalog.NewInt(r[1]), catalog.NewInt(r[2])}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	return s
}

// heapImage renders every stored tuple of t with its RID: two images are
// equal only if no slot was written.
func heapImage(t *testing.T, s *Store) []string {
	t.Helper()
	vt, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	vt.Storage().Scan(func(rid storage.RID, tu catalog.Tuple) bool {
		out = append(out, fmt.Sprintf("%v %s", rid, tupleString(tu)))
		return true
	})
	return out
}

// txnView is t as the maintenance transaction reads it, sorted.
func txnView(t *testing.T, m *Maintenance) []string {
	t.Helper()
	rows, err := m.Query(`SELECT k, a, b FROM t`, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows.Tuples))
	for i, tu := range rows.Tuples {
		out[i] = tu.String()
	}
	slices.Sort(out)
	return out
}

// TestExecStatementIsAtomic: a statement that fails on one of its rows
// writes none of them. Each fails while it is evaluated, so the
// transaction's stored tuples stay exactly as they were and the transaction
// commits with nothing changed: also an INSERT whose later row carries a live
// key, or a key an earlier row of the statement inserts.
func TestExecStatementIsAtomic(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, tc := range []struct{ name, stmt string }{
			{"where-div0", `DELETE FROM t WHERE 10 / b > 1`},
			{"set-div0", `UPDATE t SET a = 99, b = 10 / b`},
			{"values-div0", `INSERT INTO t VALUES (3, 1, 1), (4, 1 / 0, 1)`},
			{"set-key", `UPDATE t SET a = a + 1, k = 1`},
			{"live-key", `INSERT INTO t VALUES (3, 1, 1), (1, 1, 1)`},
			{"repeated-key", `INSERT INTO t VALUES (3, 1, 1), (3, 2, 2)`},
		} {
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				s := abStore(t, n, [3]int64{1, 10, 0}, [3]int64{2, 20, 5})
				want := sessionRows(t, s, "t")
				m := mustMaint(t, s)
				heap, view := heapImage(t, s), txnView(t, m)
				if _, err := m.Exec(tc.stmt, nil); err == nil {
					t.Fatal("the statement succeeded")
				}
				if !slices.Equal(heapImage(t, s), heap) {
					t.Fatal("the statement wrote before it failed")
				}
				if got := txnView(t, m); !slices.Equal(got, view) {
					t.Fatalf("the transaction reads %v after the failed statement, want %v", got, view)
				}
				commit(t, m)
				if got := sessionRows(t, s, "t"); !slices.Equal(got, want) {
					t.Fatalf("the store reads %v, want %v", got, want)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// execModel is the oracle of TestExecDifferential: t's live rows, k → (a, b).
type execModel map[int64][2]int64

func (md execModel) rows() []string {
	var out []string
	for k, ab := range md {
		out = append(out, catalog.Tuple{catalog.NewInt(k), catalog.NewInt(ab[0]), catalog.NewInt(ab[1])}.String())
	}
	slices.Sort(out)
	return out
}

// execCase is one generated statement and what the oracle expects of it:
// next is the model after it, or nil when it must fail.
type execCase struct {
	sql  string
	next execModel
}

// bVals are the values b takes: 0 makes 10 / b fail, and 10 / 20 = 0 is not
// above 1.
var bVals = []int64{0, 1, 2, 3, 20}

// cmpKey reports whether k op c holds for the generated comparison op.
func cmpKey(k int64, op string, c int64) bool {
	switch op {
	case "<":
		return k < c
	case ">=":
		return k >= c
	default:
		return k == c
	}
}

// genExec draws one statement over a key space of 12 and runs it against the
// model. Some of its rows fail: 10 / b on a row where b = 0, a SET of the key
// column, a 1 / 0 literal, or an insert of a live key.
func genExec(rng *rand.Rand, md execModel) execCase {
	next := make(execModel, len(md))
	for k, ab := range md {
		next[k] = ab
	}
	op := []string{"<", ">=", "="}[rng.Intn(3)]
	c := rng.Int63n(12)
	b := bVals[rng.Intn(len(bVals))]
	switch rng.Intn(6) {
	case 0:
		d := rng.Int63n(100)
		for k, ab := range next {
			if cmpKey(k, op, c) {
				next[k] = [2]int64{ab[0] + d, b}
			}
		}
		return execCase{fmt.Sprintf(`UPDATE t SET a = a + %d, b = %d WHERE k %s %d`, d, b, op, c), next}
	case 1:
		for k, ab := range next {
			if cmpKey(k, op, c) {
				if ab[1] == 0 {
					next = nil
					break
				}
				next[k] = [2]int64{10 / ab[1], ab[1]}
			}
		}
		return execCase{fmt.Sprintf(`UPDATE t SET a = 10 / b WHERE k %s %d`, op, c), next}
	case 2:
		for k, ab := range next {
			if cmpKey(k, op, c) {
				if k != c {
					next = nil
					break
				}
				next[k] = [2]int64{ab[0] + 1, ab[1]}
			}
		}
		return execCase{fmt.Sprintf(`UPDATE t SET k = %d, a = a + 1 WHERE k %s %d`, c, op, c), next}
	case 3:
		for k := range next {
			if cmpKey(k, op, c) {
				delete(next, k)
			}
		}
		return execCase{fmt.Sprintf(`DELETE FROM t WHERE k %s %d`, op, c), next}
	case 4:
		for k, ab := range next {
			if ab[1] == 0 {
				next = nil
				break
			}
			if 10/ab[1] > 1 {
				delete(next, k)
			}
		}
		return execCase{`DELETE FROM t WHERE 10 / b > 1`, next}
	default:
		var vals []string
		for r := 1 + rng.Intn(3); r > 0; r-- {
			k, a := rng.Int63n(12), rng.Int63n(100)
			b := bVals[rng.Intn(len(bVals))]
			if _, live := next[k]; live || next == nil {
				next = nil
			} else {
				next[k] = [2]int64{a, b}
			}
			if rng.Intn(8) == 0 {
				vals = append(vals, fmt.Sprintf("(%d, 1 / 0, %d)", k, b))
				next = nil
				continue
			}
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", k, a, b))
		}
		return execCase{`INSERT INTO t VALUES ` + strings.Join(vals, ", "), next}
	}
}

// TestExecDifferential runs random statements, some of whose rows fail,
// against a map model, in transactions that each run several of them. A
// statement that succeeds must leave the transaction reading the model's
// rows. One that fails must leave every stored tuple as it was and the
// transaction committable. One whose second write the writeFault seam fails
// has written, so Commit must refuse and Rollback restore the last committed
// state.
func TestExecDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for _, n := range []int{2, 3} {
		// How many statements succeeded, failed with nothing written, and
		// failed after a write: the generator must reach all three.
		var outcomes [3]int
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			s := abStore(t, n)
			// failAt is the write of the next statement the seam fails; 0
			// fails none.
			var writes, failAt int
			s.writeFault = func(*VTable, catalog.Tuple) error {
				if writes++; writes == failAt {
					return errCorrupt
				}
				return nil
			}
			committed := execModel{}
			for txn := 0; txn < 4; txn++ {
				m := mustMaint(t, s)
				md := committed
				poisoned := false
				for i := 0; i < 6 && !poisoned; i++ {
					c := genExec(rng, md)
					heap := heapImage(t, s)
					if writes, failAt = 0, 0; rng.Intn(6) == 0 {
						failAt = 2
					}
					_, err := m.Exec(c.sql, nil)
					failAt = 0
					switch {
					case errors.Is(err, errCorrupt):
						if c.next == nil {
							t.Fatalf("n=%d seed=%d: %s reached its writes, the model expects it to fail before them", n, seed, c.sql)
						}
						if cerr := m.Commit(); cerr == nil {
							t.Fatalf("n=%d seed=%d: %s failed after a write (%v) and Commit accepted it", n, seed, c.sql, err)
						}
						poisoned = true
						outcomes[2]++
					case err == nil && c.next == nil:
						t.Fatalf("n=%d seed=%d: %s succeeded, the model expects a failure", n, seed, c.sql)
					case err != nil && c.next != nil:
						t.Fatalf("n=%d seed=%d: %s: %v", n, seed, c.sql, err)
					case err == nil:
						md = c.next
						outcomes[0]++
					case slices.Equal(heapImage(t, s), heap):
						outcomes[1]++
					default:
						t.Fatalf("n=%d seed=%d: %s wrote before it failed: %v", n, seed, c.sql, err)
					}
					if got := txnView(t, m); !poisoned && !slices.Equal(got, md.rows()) {
						t.Fatalf("n=%d seed=%d: after %s the transaction reads %v, want %v", n, seed, c.sql, got, md.rows())
					}
				}
				if poisoned || rng.Intn(4) == 0 {
					if err := m.Rollback(); err != nil {
						t.Fatal(err)
					}
				} else {
					commit(t, m)
					committed = md
				}
				if got := sessionRows(t, s, "t"); !slices.Equal(got, committed.rows()) {
					t.Fatalf("n=%d seed=%d: the store reads %v, want %v", n, seed, got, committed.rows())
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("n=%d seed=%d: %v", n, seed, err)
				}
			}
		}
		if slices.Contains(outcomes[:], 0) {
			t.Errorf("n=%d: %d statements succeeded, %d failed unwritten and %d failed after a write; want each case reached", n, outcomes[0], outcomes[1], outcomes[2])
		}
		t.Logf("n=%d: %d succeeded, %d failed unwritten, %d failed after a write", n, outcomes[0], outcomes[1], outcomes[2])
	}
}
