package mvcc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/storage"
)

// MV2PL implements multi-version concurrency control in the style of
// [CFL+82]: the main relation holds only the current version of each tuple;
// previous versions are copied out to a separate version pool, chained
// newest-to-oldest. Readers take a begin-timestamp and read the newest
// version no newer than it — walking the chain costs one pool-record read
// per hop, and every write costs one pool copy-out. Those are exactly the
// extra I/Os §6 charges MV2PL with, and exactly what 2VNL avoids by keeping
// both versions inside the tuple.
//
// With Config.CacheSlots > 0 the scheme adds the [BC92b] refinement: the
// most recent previous versions are kept in a reserved area of the tuple's
// own page (modelled as in-tuple cache slots), so readers of recent
// versions avoid pool I/O at the price of permanently reserved page space.
//
// Readers and the writer never block each other; no locks are used (writer
// mutual exclusion is enforced structurally, matching the warehouse's
// single-maintenance-transaction protocol).
type MV2PL struct {
	d     *db.Database
	tbl   *db.Table
	pool  *db.Table
	cache int

	mu        sync.Mutex
	committed int64 // newest committed version counter
	writer    bool
	readers   map[*mvReader]struct{}

	chainReads atomic.Int64
	poolWrites atomic.Int64
	cacheHits  atomic.Int64
}

// Column layout of the main relation. Cache slots follow the fixed prefix.
const (
	mvK = iota
	mvV
	mvVN
	mvDead
	mvHeadPage
	mvHeadSlot
	mvFixedCols
)

// Column layout of a version-pool record.
const (
	plV = iota
	plVN
	plDead
	plNextPage
	plNextSlot
)

func mvSchema(cacheSlots int) *catalog.Schema {
	cols := []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
		{Name: "vn", Type: catalog.TypeInt, Length: 4, Updatable: true},
		{Name: "dead", Type: catalog.TypeBool, Length: 1, Updatable: true},
		{Name: "head_page", Type: catalog.TypeInt, Length: 4, Updatable: true},
		{Name: "head_slot", Type: catalog.TypeInt, Length: 4, Updatable: true},
	}
	for i := 0; i < cacheSlots; i++ {
		cols = append(cols,
			catalog.Column{Name: fmt.Sprintf("c%d_v", i), Type: catalog.TypeInt, Length: 8, Updatable: true},
			catalog.Column{Name: fmt.Sprintf("c%d_vn", i), Type: catalog.TypeInt, Length: 4, Updatable: true},
			catalog.Column{Name: fmt.Sprintf("c%d_dead", i), Type: catalog.TypeBool, Length: 1, Updatable: true},
		)
	}
	return catalog.MustSchema("acct", cols, "k")
}

func poolSchema() *catalog.Schema {
	return catalog.MustSchema("version_pool", []catalog.Column{
		{Name: "v", Type: catalog.TypeInt, Length: 8},
		{Name: "vn", Type: catalog.TypeInt, Length: 4},
		{Name: "dead", Type: catalog.TypeBool, Length: 1},
		{Name: "next_page", Type: catalog.TypeInt, Length: 4},
		{Name: "next_slot", Type: catalog.TypeInt, Length: 4},
	})
}

// NewMV2PL builds the scheme with its own engine instance. cfg.CacheSlots
// selects the BC92 variant.
func NewMV2PL(cfg Config) (*MV2PL, error) {
	d := cfg.engine()
	tbl, err := d.CreateTable(mvSchema(cfg.CacheSlots))
	if err != nil {
		return nil, err
	}
	pool, err := d.CreateTable(poolSchema())
	if err != nil {
		return nil, err
	}
	s := &MV2PL{
		d: d, tbl: tbl, pool: pool, cache: cfg.CacheSlots,
		committed: 1,
		readers:   make(map[*mvReader]struct{}),
	}
	instrument(d, nil, s.Name())
	return s, nil
}

// Name implements Scheme.
func (s *MV2PL) Name() string {
	if s.cache > 0 {
		return fmt.Sprintf("MV2PL/cache%d", s.cache)
	}
	return "MV2PL"
}

// Load implements Scheme.
func (s *MV2PL) Load(rows []KV) error {
	for _, r := range rows {
		if _, err := s.tbl.Insert(s.freshTuple(r.K, r.V, 1)); err != nil {
			return err
		}
	}
	return nil
}

func (s *MV2PL) freshTuple(k, v, vn int64) catalog.Tuple {
	t := make(catalog.Tuple, len(s.tbl.Schema().Columns))
	for i := range t {
		t[i] = catalog.Null
	}
	t[mvK] = catalog.NewInt(k)
	t[mvV] = catalog.NewInt(v)
	t[mvVN] = catalog.NewInt(vn)
	t[mvDead] = catalog.NewBool(false)
	return t
}

// Stats implements Scheme.
func (s *MV2PL) Stats() Stats {
	return Stats{
		IO:           s.d.Pool().Stats(),
		StorageBytes: s.tbl.Heap().Bytes() + s.pool.Heap().Bytes(),
		PoolBytes:    s.pool.Heap().Bytes(),
		LiveBytes: s.tbl.Len()*s.tbl.Heap().RowBytes() +
			s.pool.Len()*s.pool.Heap().RowBytes(),
		ChainReads: s.chainReads.Load(),
		PoolWrites: s.poolWrites.Load(),
		CacheHits:  s.cacheHits.Load(),
	}
}

type mvReader struct {
	s  *MV2PL
	ts int64
}

// BeginReader implements Scheme: the reader's view is the newest committed
// version at begin time. No locks are taken.
func (s *MV2PL) BeginReader() (Reader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &mvReader{s: s, ts: s.committed}
	s.readers[r] = struct{}{}
	return r, nil
}

// resolve finds the value of a main tuple as of ts, consulting cache slots
// and then the pool chain.
func (r *mvReader) resolve(t catalog.Tuple) (int64, bool, error) {
	s := r.s
	if t[mvVN].Int() <= r.ts {
		if t[mvDead].Bool() {
			return 0, false, nil
		}
		return t[mvV].Int(), true, nil
	}
	// BC92 in-page cache: newest-first; same page as the tuple, so no
	// extra I/O.
	for i := 0; i < s.cache; i++ {
		base := mvFixedCols + 3*i
		if t[base+1].IsNull() {
			break
		}
		if vn := t[base+1].Int(); vn <= r.ts {
			s.cacheHits.Add(1)
			if t[base+2].Bool() {
				return 0, false, nil
			}
			return t[base].Int(), true, nil
		}
	}
	// Walk the global version pool chain (one record read per hop).
	pg, sl := t[mvHeadPage], t[mvHeadSlot]
	for !pg.IsNull() {
		rec, err := s.pool.Get(storage.RID{Page: int(pg.Int()), Slot: int(sl.Int())})
		if err != nil {
			return 0, false, fmt.Errorf("mvcc: broken version chain: %w", err)
		}
		s.chainReads.Add(1)
		if rec[plVN].Int() <= r.ts {
			if rec[plDead].Bool() {
				return 0, false, nil
			}
			return rec[plV].Int(), true, nil
		}
		pg, sl = rec[plNextPage], rec[plNextSlot]
	}
	// No version as old as ts: the tuple did not exist then.
	return 0, false, nil
}

func (r *mvReader) Get(k int64) (int64, bool, error) {
	rid, ok := r.s.tbl.SearchKey(kvKey(k))
	if !ok {
		return 0, false, nil
	}
	t, err := r.s.tbl.Get(rid)
	if err != nil {
		return 0, false, nil
	}
	return r.resolve(t)
}

func (r *mvReader) ScanSum() (int64, int, error) {
	var sum int64
	count := 0
	var resolveErr error
	r.s.tbl.Scan(func(_ storage.RID, t catalog.Tuple) bool {
		v, ok, err := r.resolve(t)
		if err != nil {
			resolveErr = err
			return false
		}
		if ok {
			sum += v
			count++
		}
		return true
	})
	return sum, count, resolveErr
}

func (r *mvReader) Close() error {
	r.s.mu.Lock()
	delete(r.s.readers, r)
	r.s.mu.Unlock()
	return nil
}

type mvWriter struct {
	s  *MV2PL
	vn int64
	// touched records RIDs for abort.
	touched  []storage.RID
	inserted []storage.RID
}

// BeginWriter implements Scheme.
func (s *MV2PL) BeginWriter() (Writer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer {
		return nil, errors.New("mvcc: MV2PL writer already active")
	}
	s.writer = true
	return &mvWriter{s: s, vn: s.committed + 1}, nil
}

// pushVersion preserves the tuple's current state before an overwrite:
// into the in-page cache when configured (spilling the oldest cached
// version to the pool), else directly to the pool. It must run before the
// main tuple is updated so concurrent readers never miss a version.
func (w *mvWriter) pushVersion(rid storage.RID, t catalog.Tuple) error {
	s := w.s
	spillV, spillVN, spillDead := t[mvV], t[mvVN], t[mvDead]
	if s.cache > 0 {
		// Shift the cache; the oldest slot (if occupied) spills.
		lastBase := mvFixedCols + 3*(s.cache-1)
		var evictedV, evictedVN, evictedDead catalog.Value = t[lastBase], t[lastBase+1], t[lastBase+2]
		for i := s.cache - 1; i > 0; i-- {
			dst, src := mvFixedCols+3*i, mvFixedCols+3*(i-1)
			t[dst], t[dst+1], t[dst+2] = t[src], t[src+1], t[src+2]
		}
		t[mvFixedCols], t[mvFixedCols+1], t[mvFixedCols+2] = spillV, spillVN, spillDead
		if evictedVN.IsNull() {
			return nil // cache had room; no pool I/O at all
		}
		spillV, spillVN, spillDead = evictedV, evictedVN, evictedDead
	}
	rec := catalog.Tuple{spillV, spillVN, spillDead, t[mvHeadPage], t[mvHeadSlot]}
	prid, err := s.pool.Insert(rec)
	if err != nil {
		return err
	}
	s.poolWrites.Add(1)
	t[mvHeadPage] = catalog.NewInt(int64(prid.Page))
	t[mvHeadSlot] = catalog.NewInt(int64(prid.Slot))
	return nil
}

func (w *mvWriter) Insert(k, v int64) error {
	rid, err := w.s.tbl.Insert(w.s.freshTuple(k, v, w.vn))
	if err != nil {
		return err
	}
	w.inserted = append(w.inserted, rid)
	return nil
}

func (w *mvWriter) write(k int64, v int64, dead bool) error {
	s := w.s
	rid, ok := s.tbl.SearchKey(kvKey(k))
	if !ok {
		return fmt.Errorf("mvcc: write of missing key %d", k)
	}
	t, err := s.tbl.Get(rid)
	if err != nil {
		return err
	}
	if t[mvVN].Int() < w.vn {
		if err := w.pushVersion(rid, t); err != nil {
			return err
		}
		w.touched = append(w.touched, rid)
	}
	t[mvV] = catalog.NewInt(v)
	t[mvVN] = catalog.NewInt(w.vn)
	t[mvDead] = catalog.NewBool(dead)
	return s.tbl.Update(rid, t)
}

func (w *mvWriter) Update(k, v int64) error { return w.write(k, v, false) }

// Delete writes a tombstone version; the tuple stays for older readers and
// is reclaimed by GC.
func (w *mvWriter) Delete(k int64) error { return w.write(k, 0, true) }

func (w *mvWriter) finish() {
	w.s.mu.Lock()
	w.s.writer = false
	w.s.mu.Unlock()
}

// Commit publishes the new version by bumping the committed counter.
// Nothing is deleted and nobody is waited for — but the pool copies have
// already been paid for.
func (w *mvWriter) Commit() error {
	defer w.finish()
	w.s.mu.Lock()
	w.s.committed = w.vn
	w.s.mu.Unlock()
	return nil
}

// Abort restores every touched tuple from its newest preserved version and
// removes inserted tuples.
func (w *mvWriter) Abort() error {
	defer w.finish()
	s := w.s
	for _, rid := range w.inserted {
		_ = s.tbl.Delete(rid)
	}
	for _, rid := range w.touched {
		t, err := s.tbl.Get(rid)
		if err != nil {
			continue
		}
		if s.cache > 0 && !t[mvFixedCols+1].IsNull() {
			// Pop the newest cached version back into the tuple.
			t[mvV], t[mvVN], t[mvDead] = t[mvFixedCols], t[mvFixedCols+1], t[mvFixedCols+2]
			for i := 0; i < s.cache-1; i++ {
				dst, src := mvFixedCols+3*i, mvFixedCols+3*(i+1)
				t[dst], t[dst+1], t[dst+2] = t[src], t[src+1], t[src+2]
			}
			last := mvFixedCols + 3*(s.cache-1)
			t[last], t[last+1], t[last+2] = catalog.Null, catalog.Null, catalog.Null
			_ = s.tbl.Update(rid, t)
			continue
		}
		// Pop from the pool chain.
		pg, sl := t[mvHeadPage], t[mvHeadSlot]
		if pg.IsNull() {
			continue
		}
		prid := storage.RID{Page: int(pg.Int()), Slot: int(sl.Int())}
		rec, err := s.pool.Get(prid)
		if err != nil {
			continue
		}
		t[mvV], t[mvVN], t[mvDead] = rec[plV], rec[plVN], rec[plDead]
		t[mvHeadPage], t[mvHeadSlot] = rec[plNextPage], rec[plNextSlot]
		_ = s.tbl.Update(rid, t)
		_ = s.pool.Delete(prid)
	}
	return nil
}

// GC implements Scheme: reclaims pool records (and dead main tuples) that
// no active reader can reach, per the oldest active begin-timestamp.
func (s *MV2PL) GC() int {
	s.mu.Lock()
	floor := s.committed
	for r := range s.readers {
		if r.ts < floor {
			floor = r.ts
		}
	}
	writerActive := s.writer
	s.mu.Unlock()
	if writerActive {
		return 0
	}
	reclaimed := 0
	type mainFix struct {
		rid  storage.RID
		drop bool
	}
	var fixes []mainFix
	var poolVictims []storage.RID
	s.tbl.Scan(func(rid storage.RID, t catalog.Tuple) bool {
		// Walk the chain; once a version with vn <= floor is found, every
		// older record is unreachable.
		found := t[mvVN].Int() <= floor
		// Cached versions are reclaimed implicitly (slots reused); only
		// chase the pool chain.
		if s.cache > 0 {
			for i := 0; i < s.cache && !found; i++ {
				base := mvFixedCols + 3*i
				if t[base+1].IsNull() {
					break
				}
				found = t[base+1].Int() <= floor
			}
		}
		pg, sl := t[mvHeadPage], t[mvHeadSlot]
		truncated := false
		for !pg.IsNull() {
			prid := storage.RID{Page: int(pg.Int()), Slot: int(sl.Int())}
			rec, err := s.pool.Get(prid)
			if err != nil {
				break
			}
			if found {
				poolVictims = append(poolVictims, prid)
				if !truncated {
					truncated = true
					fixes = append(fixes, mainFix{rid: rid})
					_ = rec
				}
			}
			if rec[plVN].Int() <= floor {
				found = true
			}
			pg, sl = rec[plNextPage], rec[plNextSlot]
		}
		// A dead current version at or below the floor with no reachable
		// history can be removed outright.
		if t[mvDead].Bool() && t[mvVN].Int() <= floor {
			fixes = append(fixes, mainFix{rid: rid, drop: true})
		}
		return true
	})
	// Truncation bookkeeping: chains are cut by clearing heads where the
	// whole chain was reclaimable; partial cuts re-walk and clear the next
	// pointer of the last kept record. For experiment-scale simplicity,
	// chains are only reclaimed whole-tuple here: when the current version
	// itself satisfies every reader (vn <= floor), the entire chain is
	// unreachable.
	for _, f := range fixes {
		if f.drop {
			if err := s.tbl.Delete(f.rid); err == nil {
				reclaimed++
			}
			continue
		}
		t, err := s.tbl.Get(f.rid)
		if err != nil {
			continue
		}
		if t[mvVN].Int() <= floor {
			t[mvHeadPage], t[mvHeadSlot] = catalog.Null, catalog.Null
			_ = s.tbl.Update(f.rid, t)
		}
	}
	for _, prid := range poolVictims {
		if err := s.pool.Delete(prid); err == nil {
			reclaimed++
		}
	}
	return reclaimed
}
