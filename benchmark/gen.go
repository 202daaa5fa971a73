package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"repro/internal/catalog"
	"repro/pkg/vnlclient"
)

// The schema every workload runs on. grp is id mod groups, so a scan by grp
// over fact_small returns exactly smallRows/groups = 256 rows.
const (
	factTable = "fact"
	createSQL = `CREATE TABLE fact (id INT(8), grp INT(8), qty INT(8) UPDATABLE, amount INT(8) UPDATABLE, UNIQUE KEY(id))`
	groups    = 64
	smallRows = 16384  // fact_small: fits the 1 024-page buffer pool
	largeRows = 262144 // fact_large: exceeds it

	scanSQL  = `SELECT id, qty, amount FROM fact WHERE grp = :g`
	pointSQL = `SELECT id, qty, amount FROM fact WHERE id = :k`
	aggSQL   = `SELECT grp, COUNT(*), SUM(amount) FROM fact GROUP BY grp`
)

// The maintenance batch of the online and sharded workloads: 2 048 deltas
// that together reach every cell of Tables 2–4 a key-addressed stream can.
const (
	batchUpdates   = 1408 // of which batchRetouch are second touches of a key already updated
	batchRetouch   = 128
	batchInserts   = 256
	batchDeletes   = 256
	batchPairs     = 64 // insert-then-delete of a fresh id: a physical delete inside the transaction
	batchDeltas    = batchUpdates + batchInserts + batchDeletes + 2*batchPairs
	loadBatchRows  = 2048
	freshIDBase    = int64(1) << 40 // ids of the insert-then-delete pairs, clear of the live window
	zipfExponent   = 1.1
	zipfScatter    = 2654435761 // odd, so rank → key is a bijection on a power-of-two table
	gcEveryBatches = 8
)

// mix is the splitmix64 finalizer: the closed form behind every generated
// value, so an answer can be checked without remembering what was sent.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// baseRow is the closed form of the bulk-loaded row with the given id.
func baseRow(seed, id int64) (qty, amount int64) {
	h := mix(uint64(seed)<<32 ^ uint64(id))
	return int64(h%100) + 1, int64((h >> 32) % 100000)
}

func intTuple(vs ...int64) catalog.Tuple {
	t := make(catalog.Tuple, len(vs))
	for i, v := range vs {
		t[i] = catalog.NewInt(v)
	}
	return t
}

func factRow(id, qty, amount int64) catalog.Tuple {
	return intTuple(id, id%groups, qty, amount)
}

// loadBatch is the k-th bulk-load batch: loadBatchRows closed-form inserts.
func loadBatch(seed int64, k, rows int) []vnlclient.Delta {
	lo := k * loadBatchRows
	hi := min(lo+loadBatchRows, rows)
	ds := make([]vnlclient.Delta, 0, hi-lo)
	for id := int64(lo); id < int64(hi); id++ {
		qty, amount := baseRow(seed, id)
		ds = append(ds, vnlclient.Delta{Table: factTable, Op: vnlclient.DeltaInsert, Row: factRow(id, qty, amount)})
	}
	return ds
}

// feed generates the maintenance stream. The live ids are always the
// window [lo, hi): each batch deletes the batchDeletes oldest and inserts
// batchInserts new ones, so the table keeps its size and no delta ever
// misses its key.
type feed struct {
	r      *rand.Rand
	lo, hi int64
	fresh  int64
}

func newFeed(seed int64, rows int) *feed {
	return &feed{r: rand.New(rand.NewSource(seed ^ 0x6d61696e74)), hi: int64(rows), fresh: freshIDBase}
}

func (f *feed) update(id int64) vnlclient.Delta {
	return vnlclient.Delta{
		Table: factTable, Op: vnlclient.DeltaUpdate,
		Row: factRow(id, f.r.Int63n(100)+1, f.r.Int63n(100000)),
		Key: intTuple(id),
	}
}

func (f *feed) next() []vnlclient.Delta {
	ds := make([]vnlclient.Delta, 0, batchDeltas)
	// Updates draw from the live ids this batch does not delete.
	span := f.hi - f.lo - batchDeletes
	first := make([]int64, 0, batchUpdates-batchRetouch)
	seen := make(map[int64]struct{}, batchUpdates)
	for len(first) < cap(first) {
		id := f.lo + batchDeletes + f.r.Int63n(span)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		first = append(first, id)
		ds = append(ds, f.update(id))
	}
	for i := 0; i < batchRetouch; i++ {
		ds = append(ds, f.update(first[f.r.Intn(len(first))]))
	}
	for i := int64(0); i < batchInserts; i++ {
		id := f.hi + i
		ds = append(ds, vnlclient.Delta{Table: factTable, Op: vnlclient.DeltaInsert,
			Row: factRow(id, f.r.Int63n(100)+1, f.r.Int63n(100000))})
	}
	for i := int64(0); i < batchDeletes; i++ {
		ds = append(ds, vnlclient.Delta{Table: factTable, Op: vnlclient.DeltaDelete, Key: intTuple(f.lo + i)})
	}
	for i := 0; i < batchPairs; i++ {
		id := f.fresh
		f.fresh++
		ds = append(ds,
			vnlclient.Delta{Table: factTable, Op: vnlclient.DeltaInsert, Row: factRow(id, 1, 1)},
			vnlclient.Delta{Table: factTable, Op: vnlclient.DeltaDelete, Key: intTuple(id)})
	}
	f.lo += batchDeletes
	f.hi += batchInserts
	return ds
}

// queryGen draws the parameter of a reader's next query.
type queryGen struct {
	r    *rand.Rand
	zipf *rand.Zipf
	rows uint64
}

// newQueryGen seeds one reader connection's stream; conn separates the
// connections of one run.
func newQueryGen(seed int64, conn, rows int) *queryGen {
	r := rand.New(rand.NewSource(seed<<8 ^ int64(conn+1)))
	return &queryGen{r: r, zipf: rand.NewZipf(r, zipfExponent, 1, uint64(rows-1)), rows: uint64(rows)}
}

func (g *queryGen) group() int64 { return g.r.Int63n(groups) }

// key is zipfian over the table: rank 0 is hottest, and the ranks are
// scattered over the id space so the hot set is not one run of pages.
func (g *queryGen) key() int64 { return int64(g.zipf.Uint64() * zipfScatter % g.rows) }

// streamHash digests the first n operations a workload's generators emit:
// the determinism check (same seed, same hash).
func streamHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	g := newQueryGen(seed, 0, w.rows)
	for i := 0; i < n; i++ {
		put(w.param(g).Int())
	}
	if w.writer {
		f := newFeed(seed, w.rows)
		for i := 0; i < 2; i++ {
			for _, d := range f.next() {
				put(int64(d.Op))
				for _, v := range append(append(catalog.Tuple{}, d.Row...), d.Key...) {
					put(v.Int())
				}
			}
		}
	}
	return h.Sum64()
}
