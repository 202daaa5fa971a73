// Package repro's root benchmark suite: one testing.B benchmark per paper
// artifact / experiment (see DESIGN.md's per-experiment index), plus
// micro-benchmarks of the operations the paper's cost arguments hinge on:
// versioned reads, maintenance folds, rewritten queries, and scheme-level
// reader/writer paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/mvcc"
	"repro/internal/sql"
)

// benchConfig is the shared quick-scale config so `go test -bench .`
// finishes promptly; use cmd/vnlbench for full-scale runs.
var benchConfig = bench.Config{Quick: true, Seed: 1}

// runExperiment benchmarks one harness experiment end to end.
func runExperiment(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1_ReaderDecisionTable(b *testing.B) { runExperiment(b, "T1") }
func BenchmarkT2_InsertDecisionTable(b *testing.B) { runExperiment(b, "T2") }
func BenchmarkT3_UpdateDecisionTable(b *testing.B) { runExperiment(b, "T3") }
func BenchmarkT4_DeleteDecisionTable(b *testing.B) { runExperiment(b, "T4") }
func BenchmarkF1_NightlyTimeline(b *testing.B)     { runExperiment(b, "F1") }
func BenchmarkF2_VNLTimeline(b *testing.B)         { runExperiment(b, "F2") }
func BenchmarkF3_SchemaOverhead(b *testing.B)      { runExperiment(b, "F3") }
func BenchmarkF4_Figure4Example(b *testing.B)      { runExperiment(b, "F4") }
func BenchmarkF5_Figure5Transaction(b *testing.B)  { runExperiment(b, "F5") }
func BenchmarkF6_Figure6Result(b *testing.B)       { runExperiment(b, "F6") }
func BenchmarkF7_NVNLExample(b *testing.B)         { runExperiment(b, "F7") }
func BenchmarkE1_StorageOverhead(b *testing.B)     { runExperiment(b, "E1") }
func BenchmarkE2_Blocking(b *testing.B)            { runExperiment(b, "E2") }
func BenchmarkE3_IOPerOperation(b *testing.B)      { runExperiment(b, "E3") }
func BenchmarkE4_ExpirationFormula(b *testing.B)   { runExperiment(b, "E4") }
func BenchmarkE5_ExpirationByPolicy(b *testing.B)  { runExperiment(b, "E5") }
func BenchmarkE6_RewriteOverhead(b *testing.B)     { runExperiment(b, "E6") }
func BenchmarkE7_WindowCapacity(b *testing.B)      { runExperiment(b, "E7") }
func BenchmarkE8_GCAndRollback(b *testing.B)       { runExperiment(b, "E8") }
func BenchmarkE9_IndexingUnder2VNL(b *testing.B)   { runExperiment(b, "E9") }
func BenchmarkE10_WALVolume(b *testing.B)          { runExperiment(b, "E10") }
func BenchmarkE11_ExpiryDetection(b *testing.B)    { runExperiment(b, "E11") }

// --- Micro-benchmarks -------------------------------------------------

func kvStore(b *testing.B, n, rows int) *core.Store {
	b.Helper()
	d := db.Open(db.Options{})
	s, err := core.Open(d, core.Options{N: n})
	if err != nil {
		b.Fatal(err)
	}
	schema := catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
	if _, err := s.CreateTable(schema); err != nil {
		b.Fatal(err)
	}
	m, err := s.BeginMaintenance()
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < rows; k++ {
		if err := m.Insert("kv", catalog.Tuple{catalog.NewInt(int64(k)), catalog.NewInt(int64(k))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkVersionedGet measures a keyed read through the session layer.
func BenchmarkVersionedGet(b *testing.B) {
	s := kvStore(b, 2, 10000)
	sess := s.BeginSession()
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sess.Get("kv", catalog.Tuple{catalog.NewInt(int64(i % 10000))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVersionedScan measures a full versioned scan (ReadAsOf per
// tuple) for n = 2 and 4.
func BenchmarkVersionedScan(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s := kvStore(b, n, 10000)
			sess := s.BeginSession()
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count := 0
				if err := sess.Scan("kv", func(catalog.Tuple) bool { count++; return true }); err != nil {
					b.Fatal(err)
				}
				if count != 10000 {
					b.Fatalf("count %d", count)
				}
			}
		})
	}
}

// BenchmarkMaintenanceUpdate measures the Table 3 fold per tuple.
func BenchmarkMaintenanceUpdate(b *testing.B) {
	s := kvStore(b, 2, 10000)
	m, err := s.BeginMaintenance()
	if err != nil {
		b.Fatal(err)
	}
	defer m.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(int64(i % 10000))},
			func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(int64(i)); return c }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteSelect measures the §4.1 query rewrite itself (parse +
// transform, no execution).
func BenchmarkRewriteSelect(b *testing.B) {
	s := kvStore(b, 2, 1)
	sel, err := sql.ParseSelect(`SELECT k, SUM(v) FROM kv WHERE v > 10 GROUP BY k ORDER BY k`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RewriteSelect(s, sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParse measures the parser on the paper's rewritten query.
func BenchmarkSQLParse(b *testing.B) {
	q := `SELECT city, state, SUM(CASE WHEN :sessionVN >= tupleVN THEN total_sales ELSE pre_total_sales END)
	      FROM DailySales
	      WHERE (:sessionVN >= tupleVN AND operation <> 'delete')
	         OR (:sessionVN < tupleVN AND operation <> 'insert')
	      GROUP BY city, state`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemeReaderScan compares a full reader scan across schemes with
// one batch of history present.
func BenchmarkSchemeReaderScan(b *testing.B) {
	mk := map[string]func() (mvcc.Scheme, error){
		"S2PL":  func() (mvcc.Scheme, error) { return mvcc.NewS2PL(mvcc.Config{}) },
		"2V2PL": func() (mvcc.Scheme, error) { return mvcc.NewTwoV2PL(mvcc.Config{}) },
		"MV2PL": func() (mvcc.Scheme, error) { return mvcc.NewMV2PL(mvcc.Config{}) },
		"2VNL":  func() (mvcc.Scheme, error) { return mvcc.NewVNL(mvcc.Config{}, 2) },
	}
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			s, err := f()
			if err != nil {
				b.Fatal(err)
			}
			rows := make([]mvcc.KV, 5000)
			for i := range rows {
				rows[i] = mvcc.KV{K: int64(i), V: 1}
			}
			if err := s.Load(rows); err != nil {
				b.Fatal(err)
			}
			w, err := s.BeginWriter()
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 500; k++ {
				if err := w.Update(int64(k), 2); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := s.BeginReader()
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := r.ScanSum(); err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}
