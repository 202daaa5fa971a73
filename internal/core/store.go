package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Options configures a Store.
type Options struct {
	// N is the number of simultaneously available database versions;
	// 0 or 2 selects the paper's 2VNL, larger values select nVNL (§5).
	N int
	// Metrics receives the store's instrumentation (sessions, version
	// advances, Tables 2–4 outcome cells, GC). Nil selects obs.Default(),
	// which is what the binaries render; tests pass a private registry to
	// make exact-count assertions.
	Metrics *obs.Registry
	// Tracer receives the store's state-transition events. Nil selects
	// obs.DefaultTracer(), a ring buffer of recent events.
	Tracer obs.Tracer
}

// Store is the 2VNL/nVNL controller for one database: it owns the global
// version state (currentVN, maintenanceActive), the registry of versioned
// tables, and the active reader sessions. One maintenance transaction may
// run at a time; any number of reader sessions run concurrently with it,
// lock-free: the steady-state read path (Check, table lookup, query
// execution) performs no mutex acquisition at all — see ARCHITECTURE.md's
// read-path memory model.
type Store struct {
	d *db.Database
	n int

	// mu is the latch guarding the global variables (§3: "we assume a
	// simple latching mechanism is used to read and update these global
	// variables"). Only writers take it; readers consume the published
	// snapshot below. The "guarded by mu" annotations are enforced
	// mechanically by vnlvet's guardedwrite analyzer.
	mu          sync.Mutex
	currentVN   VN           // guarded by mu
	maintActive bool         // guarded by mu
	maint       *Maintenance // guarded by mu
	// expireFloor expires sessions older than it; a logless rollback
	// raises it to currentVN because reverted tuples can no longer serve
	// their pre-update versions. Guarded by mu.
	expireFloor VN
	// journal, when non-nil, receives every physical change for
	// durability (see Journal). Guarded by mu.
	journal Journal

	// snap is the immutable published copy of (currentVN, maintActive,
	// expireFloor): the reader hot path loads it with one atomic
	// operation and never touches mu. Published under mu.
	snap atomic.Pointer[globalSnapshot]
	// tables is the copy-on-write registry of versioned relations:
	// lookup is an atomic load; mutators copy and swap. Published under
	// mu.
	tables atomic.Pointer[tableRegistry]

	// sessions is the sharded registry of live reader sessions; it has
	// its own fine-grained locks and is never touched under mu.
	sessions sessionRegistry

	// gcClamp, when set, caps the GC floor from outside the store: the
	// shard router pins it to the published cross-shard epoch, and a
	// replication primary pins it to the slowest replica's advertised
	// session floor, so physical reclamation never outruns a reader the
	// store itself cannot see. Swapped atomically; GC loads it once per
	// pass.
	gcClamp atomic.Pointer[func() (VN, bool)]

	// plans is the statement cache every SELECT resolves through. Entries
	// invalidate by table-registry pointer (plancache.go).
	plans *planCache

	// adoptLoadHook, when non-nil, runs before each tuple is loaded into
	// the extended table during AdoptTable (test seam for mid-load
	// failure injection).
	adoptLoadHook func(i int) error
	// writeFault, when non-nil, fails each maintenance or rollback write of
	// a tuple it returns an error for (test seam for a corrupt engine).
	writeFault func(vt *VTable, t catalog.Tuple) error

	// gcMu keeps GC passes and maintenance transactions apart. A pass holds
	// it from its maintenanceActive check to its journal commit; a begin
	// holds it while it raises the flag. So a transaction that arrives
	// during a pass waits for the pass, and a pass that finds a transaction
	// active returns empty. Lock order: gcMu before mu.
	gcMu sync.Mutex
	// gcSelected, when non-nil, runs in a GC pass between a table's victim
	// selection and its deletes (test seam for a transaction racing the
	// pass).
	gcSelected func(table string)

	// reg and metrics are the store's observability surface (never nil;
	// see Options.Metrics).
	reg     *obs.Registry
	metrics *storeMetrics
}

// VTable is a versioned relation managed by the store.
type VTable struct {
	store *Store
	ext   *ExtTable
	tbl   *stored
	// oldestHW is a high-water mark of the oldest version slot: the
	// maximum tupleVN(n−1) over the table's physical tuples. The
	// per-tuple expiration probe (§3.2's optimistic alternative) reads it
	// instead of scanning. Maintenance writes raise it. A removal or slot
	// pop that may have carried it sets hwStale, and the writer recomputes
	// it once, by an in-place walk, when its batch, Commit, GC pass or
	// replayed transaction ends; rollback and recovery recompute it too.
	oldestHW atomic.Int64
	hwStale  atomic.Bool
}

// Open attaches a 2VNL/nVNL store to a database. currentVN starts at 1
// (§3).
func Open(d *db.Database, opts Options) (*Store, error) {
	n := opts.N
	if n == 0 {
		n = 2
	}
	if n < 2 {
		return nil, fmt.Errorf("core: need at least 2 versions, got %d", n)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer()
	}
	s := &Store{
		d:         d,
		n:         n,
		currentVN: 1,
		reg:       reg,
		metrics:   newStoreMetrics(reg, tracer),
		plans:     &planCache{m: make(map[string]*planEntry)},
	}
	// The store is not shared until Open returns, but the publish
	// discipline is cheap enough to follow even here.
	acquired := s.latchAcquire()
	empty := make(tableRegistry)
	s.tables.Store(&empty)
	s.publishLocked()
	s.latchRelease(acquired)
	s.metrics.currentVN.Set(1)
	// A database without a pool registers no storage_pool_* series.
	d.Pool().Instrument(reg, "storage_pool")
	return s, nil
}

// N returns the number of simultaneously available versions.
func (s *Store) N() int { return s.n }

// DB returns the underlying database.
func (s *Store) DB() *db.Database { return s.d }

// globals reads (currentVN, maintenanceActive) from the published snapshot,
// without the latch.
func (s *Store) globals() (VN, bool) {
	vn, active, _ := s.readGlobals()
	return vn, active
}

func (s *Store) globalsLocked() (VN, bool) {
	return s.currentVN, s.maintActive
}

// setGlobalsLocked installs (currentVN, maintenanceActive) and publishes
// the new snapshot.
func (s *Store) setGlobalsLocked(vn VN, active bool) {
	s.currentVN, s.maintActive = vn, active
	s.publishLocked()
}

// CurrentVN returns the committed database version number.
func (s *Store) CurrentVN() VN {
	vn, _ := s.globals()
	return vn
}

// MaintenanceActive reports whether a maintenance transaction is running.
func (s *Store) MaintenanceActive() bool {
	_, a := s.globals()
	return a
}

// CreateTable creates a versioned relation: the base schema is extended per
// §3.1/§5 and the extended table is created in the engine. The base
// schema's key (for summary tables, the group-by attributes) becomes the
// extended table's unique key, served by a hash index — which is unaffected
// by 2VNL because key attributes are never updatable (§4.3).
func (s *Store) CreateTable(base *catalog.Schema) (*VTable, error) {
	ext, err := ExtendSchema(base, s.n)
	if err != nil {
		return nil, err
	}
	tbl, err := s.d.CreateSummarisedTable(ext.Ext, ext.summary, ext.image())
	if err != nil {
		return nil, err
	}
	vt := &VTable{store: s, ext: ext, tbl: newStored(ext, tbl)}
	// Journal the create record before taking the latch: the append may
	// block on I/O and the §3 latch must stay short-duration. The record
	// still precedes any tuple record for the table because the table is
	// not visible to writers until registered below.
	if j := s.journalOrNil(); j != nil {
		j.LogCreate(base)
	}
	s.mu.Lock()
	s.registerTableLocked(base.Name, vt)
	s.mu.Unlock()
	return vt, nil
}

// registerTableLocked publishes a copy of the table registry with vt added.
func (s *Store) registerTableLocked(name string, vt *VTable) {
	old := *s.tables.Load()
	next := make(tableRegistry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[strings.ToLower(name)] = vt
	s.tables.Store(&next)
}

// CreateTableSQL parses a CREATE TABLE statement (with UPDATABLE column
// markers and UNIQUE KEY clause) and creates the versioned relation.
func (s *Store) CreateTableSQL(text string) (*VTable, error) {
	schema, err := parseCreate(text)
	if err != nil {
		return nil, err
	}
	return s.CreateTable(schema)
}

// AdoptTable brings an existing unversioned table in the database under
// 2VNL management: a new extended table replaces it, with every existing
// tuple recorded as inserted at version 1 (pre-existing data is visible to
// every possible session).
//
// The extended table is created under a temporary name and fully loaded
// before anything is journaled or dropped; the original table is removed
// only once the replacement is complete, so a create or mid-load failure
// leaves the user's table exactly as it was and registers nothing.
func (s *Store) AdoptTable(name string) (*VTable, error) {
	old, err := s.d.TableOf(name)
	if err != nil {
		return nil, err
	}
	base := old.Schema().Clone()
	var tuples []catalog.Tuple
	old.Scan(func(_ storage.RID, t catalog.Tuple) bool {
		tuples = append(tuples, t)
		return true
	})
	ext, err := ExtendSchema(base, s.n)
	if err != nil {
		return nil, err
	}
	tmpSchema := ext.Ext.Clone()
	tmpSchema.Name = base.Name + "__adopting"
	tbl, err := s.d.CreateSummarisedTable(tmpSchema, ext.summary, ext.image())
	if err != nil {
		return nil, fmt.Errorf("core: adopting %s: %w", name, err)
	}
	vt := &VTable{store: s, ext: ext, tbl: newStored(ext, tbl)}
	var extTuples []catalog.Tuple
	var rids []storage.RID
	for i, t := range tuples {
		if s.adoptLoadHook != nil {
			if err := s.adoptLoadHook(i); err != nil {
				_ = s.d.DropTable(tmpSchema.Name)
				return nil, fmt.Errorf("core: adopting %s: %w", name, err)
			}
		}
		extTuple := ext.NewExtTuple(t, 1)
		rid, err := tbl.Insert(extTuple)
		if err != nil {
			_ = s.d.DropTable(tmpSchema.Name)
			return nil, fmt.Errorf("core: adopting %s: %w", name, err)
		}
		vt.noteTupleWrite(extTuple)
		extTuples = append(extTuples, extTuple)
		rids = append(rids, rid)
	}
	// The load succeeded: journal the adoption (create record plus a
	// committed pseudo-transaction carrying the initial tuples), then make
	// the swap visible.
	if j := s.journalOrNil(); j != nil {
		j.LogCreate(base)
		j.LogBegin(0)
		for i, extTuple := range extTuples {
			j.LogInsert(base.Name, rids[i], extTuple)
		}
		if err := j.LogCommit(0); err != nil {
			_ = s.d.DropTable(tmpSchema.Name)
			return nil, fmt.Errorf("core: adopting %s: %w", name, err)
		}
	}
	if err := s.d.DropTable(name); err != nil {
		_ = s.d.DropTable(tmpSchema.Name)
		return nil, err
	}
	if err := s.d.RenameTable(tmpSchema.Name, ext.Ext.Name); err != nil {
		return nil, fmt.Errorf("core: adopting %s: %w", name, err)
	}
	s.mu.Lock()
	s.registerTableLocked(base.Name, vt)
	s.mu.Unlock()
	return vt, nil
}

// Table returns the versioned relation registered under name.
func (s *Store) Table(name string) (*VTable, error) {
	vt := s.lookup(name)
	if vt == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotRegistered, name)
	}
	return vt, nil
}

// Tables lists the registered versioned relations, sorted by name. The
// deterministic order matters beyond cosmetics: checkpoint and GC iterate
// this list, and the crash harness replays their I/O by operation index,
// which must not depend on map iteration order.
func (s *Store) Tables() []*VTable {
	reg := *s.tables.Load()
	out := make([]*VTable, 0, len(reg))
	for _, vt := range reg {
		out = append(out, vt)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Base().Name < out[j].Base().Name
	})
	return out
}

// lookup returns the registered table for name without error wrapping. It
// is a single atomic load — the query path resolves every table reference
// through here, lock-free.
func (s *Store) lookup(name string) *VTable {
	return (*s.tables.Load())[strings.ToLower(name)]
}

// Base returns the relation's base (user-visible) schema.
func (v *VTable) Base() *catalog.Schema { return v.ext.Base }

// Extended returns the relation's physical extended schema.
func (v *VTable) Extended() *catalog.Schema { return v.ext.Ext }

// Ext returns the schema-extension descriptor.
func (v *VTable) Ext() *ExtTable { return v.ext }

// Storage returns the underlying engine table (for storage accounting and
// tests).
func (v *VTable) Storage() *db.Table { return v.tbl.Table }

// Len returns the number of physical tuples, including logically-deleted
// ones awaiting garbage collection.
func (v *VTable) Len() int { return v.tbl.Len() }

// noteTupleWrite raises the oldest-slot high-water mark to cover a tuple
// the maintenance path just wrote. Lock-free: concurrent raises converge on
// the maximum.
func (v *VTable) noteTupleWrite(ext catalog.Tuple) {
	ovn := int64(v.ext.TupleVN(ext, v.ext.L.N-1))
	for {
		cur := v.oldestHW.Load()
		if ovn <= cur || v.oldestHW.CompareAndSwap(cur, ovn) {
			return
		}
	}
}

// noteTupleRemoved marks the high-water mark stale if a tuple the caller
// just removed, or whose slots it lowered, may have carried it: its oldest
// slot is set and at least the mark. Nothing is recomputed here. The mark
// stays stale-high until settleOldestHW, which can only expire a per-tuple
// session early, never late.
func (v *VTable) noteTupleRemoved(ext catalog.Tuple) {
	if ovn := int64(v.ext.TupleVN(ext, v.ext.L.N-1)); ovn > 0 && ovn >= v.oldestHW.Load() {
		v.hwStale.Store(true)
	}
}

// settleOldestHW recomputes the high-water mark if a removal marked it
// stale. It runs when a write burst ends: at the end of a batch, at Commit,
// at the end of a GC pass and of a replayed transaction.
func (v *VTable) settleOldestHW() {
	if v.hwStale.Load() {
		v.recomputeOldestHW()
	}
}

// settleOldestHW settles every table's high-water mark (see
// VTable.settleOldestHW).
func (s *Store) settleOldestHW() {
	for _, vt := range *s.tables.Load() {
		vt.settleOldestHW()
	}
}

// recomputeOldestHW walks the table in place for the true maximum
// oldest-slot tupleVN: the predicate keeps nothing, so nothing is copied. It
// runs where the store has a single writer. Should a write still race it (a
// maintenance transaction that began during a GC pass), the store is a
// compare-and-swap against the mark the walk started from: a raise made
// during the walk wins and leaves the mark stale, so it errs high, never low.
func (v *VTable) recomputeOldestHW() {
	e := v.ext
	oldest := e.L.N - 1
	v.hwStale.Store(false)
	from := v.oldestHW.Load()
	var hw int64
	_ = v.tbl.ScanFilter(storage.Filter{Pred: func(t catalog.Tuple) (bool, error) {
		hw = max(hw, int64(e.TupleVN(t, oldest)))
		return false, nil
	}}, func([]storage.RID, []catalog.Tuple) bool { return true })
	if !v.oldestHW.CompareAndSwap(from, hw) {
		v.hwStale.Store(true)
	}
	v.store.metrics.hwRecomputes.Inc()
}

// activeSessionFloor returns the smallest sessionVN among live sessions and
// whether any session is live. The garbage collector and the
// commit-when-quiet policy use it.
func (s *Store) activeSessionFloor() (VN, bool) {
	return s.sessions.floor()
}

// SessionFloor is the exported form of the active-session floor: the
// smallest sessionVN among live reader sessions, and whether any session is
// live at all. A replication follower advertises it to its primary so the
// primary's GC never reclaims a pre-image a lagging replica session still
// reads.
func (s *Store) SessionFloor() (VN, bool) {
	return s.activeSessionFloor()
}

// ActiveSessions returns the number of live reader sessions.
func (s *Store) ActiveSessions() int {
	return s.sessions.count()
}

// queryCatalog adapts the store for the executor: a registered table
// resolves to its stored heap read through ExtTable.Slot (stored), so a
// statement names its base columns only, and an unregistered name falls
// through to the plain database.
type queryCatalog struct{ s *Store }

func (qc queryCatalog) Table(name string) (exec.Table, error) {
	if vt := qc.s.lookup(name); vt != nil {
		return vt.tbl, nil
	}
	return qc.s.d.Table(name)
}
