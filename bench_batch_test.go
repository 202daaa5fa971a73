package repro

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
)

const (
	batchBenchLive  = 8192  // preloaded live keys
	batchBenchOps   = 10000 // deltas per batch
	batchBenchFresh = 1000  // insert+delete pairs over never-live keys
)

// batchBenchDeltas builds one deterministic, state-invariant batch: updates
// over the preloaded keys (idempotent — the same value every iteration) plus
// insert-then-delete pairs over fresh keys (net zero). Applying the batch
// any number of times from the preloaded state lands on the same base
// state, so every benchmark iteration starts from an identical store.
func batchBenchDeltas() []core.Delta {
	rng := rand.New(rand.NewSource(42))
	deltas := make([]core.Delta, 0, batchBenchOps)
	for len(deltas) < batchBenchOps-2*batchBenchFresh {
		k := rng.Int63n(batchBenchLive)
		deltas = append(deltas, core.Delta{
			Table: "kv",
			Op:    core.DeltaUpdate,
			Row:   catalog.Tuple{catalog.NewInt(k), catalog.NewInt(k*7 + 1)},
			Key:   catalog.Tuple{catalog.NewInt(k)},
		})
	}
	for i := 0; i < batchBenchFresh; i++ {
		k := int64(batchBenchLive + i)
		deltas = append(deltas,
			core.Delta{Table: "kv", Op: core.DeltaInsert,
				Row: catalog.Tuple{catalog.NewInt(k), catalog.NewInt(k)}},
			core.Delta{Table: "kv", Op: core.DeltaDelete,
				Key: catalog.Tuple{catalog.NewInt(k)}})
	}
	return deltas
}

func batchBenchStore(b *testing.B) *core.Store {
	b.Helper()
	d := db.Open(db.Options{})
	s, err := core.Open(d, core.Options{N: 2, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.CreateTableSQL(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`); err != nil {
		b.Fatal(err)
	}
	m, err := s.BeginMaintenance()
	if err != nil {
		b.Fatal(err)
	}
	for k := int64(0); k < batchBenchLive; k++ {
		if err := m.Insert("kv", catalog.Tuple{catalog.NewInt(k), catalog.NewInt(k * 10)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		b.Fatal(err)
	}
	return s
}

// batchBenchChecksum hashes the reader-visible base state, order-free.
func batchBenchChecksum(b *testing.B, s *core.Store) uint64 {
	b.Helper()
	sess := s.BeginSession()
	defer sess.Close()
	var rows []string
	if err := sess.Scan("kv", func(t catalog.Tuple) bool {
		rows = append(rows, t.String())
		return true
	}); err != nil {
		b.Fatal(err)
	}
	sort.Strings(rows)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// BenchmarkMaintainBatch measures one maintenance transaction applying a
// 10k-delta batch through ApplyBatch, and pins that repeating it commits the
// state one application on a fresh store commits. ARCHITECTURE.md's "Batch
// apply" section describes the path.
func BenchmarkMaintainBatch(b *testing.B) {
	deltas := batchBenchDeltas()
	apply := func(s *core.Store) {
		m, err := s.BeginMaintenance()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.ApplyBatch(deltas); err != nil {
			b.Fatal(err)
		}
		if err := m.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	ref := batchBenchStore(b)
	apply(ref)
	want := batchBenchChecksum(b, ref)

	s := batchBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(s)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(len(deltas))/secs, "deltas/s")
	}
	if got := batchBenchChecksum(b, s); got != want {
		b.Fatalf("final state checksum %x after %d batches, %x after one", got, b.N, want)
	}
}
