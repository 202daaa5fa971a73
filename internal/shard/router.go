// Package shard scales the 2VNL/nVNL store horizontally: a Router owns N
// independent core.Store shards — each with its own WAL and garbage
// collector — and fans queries and maintenance batches out by the
// (table, primary key) hash of core.PartitionDelta, merging the results.
//
// The research-grade piece is cross-shard session consistency. A reader
// must observe one coherent VN across every shard, so maintenance publishes
// a new global version in two phases: prepare the target VN on every shard
// (apply its partition and commit, which each shard's nVNL back-versions
// absorb without disturbing readers), then atomically flip a shared epoch
// pointer. Readers load the pointer with a single atomic and pin that VN on
// every shard via core.Store.BeginSessionAt — the same lock-free snapshot
// discipline as the single-store read path, one level up.
//
// Two races make the protocol interesting, and both are closed here:
//
//   - Register/flip: a reader can load epoch E, then have the epoch flip to
//     E+1 — and each shard's GC floor advance to E+1 — before its per-shard
//     sessions register. The reader re-loads the epoch pointer after
//     registering and retries if it moved, so a session only survives if
//     its epoch was still published after every shard knew about it.
//   - GC/epoch: between a shard's commit of VN k+1 and the global flip, the
//     shard's own GC would use floor = k+1 while readers are still pinned
//     at k. Every shard's GC floor is therefore clamped to the published
//     epoch (core.Store.SetGCFloorClamp).
//
// Durability is the router's epoch log (see epochlog.go): prepare records
// carry the full partitioned batch and are forced before any shard works,
// so crash recovery can always roll every shard forward (or roll the
// prepare off) to one all-or-nothing epoch.
package shard

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Options configures a Router.
type Options struct {
	// Shards is the number of independent stores; 0 selects 1.
	Shards int
	// N is each shard's version count (0 or 2 = 2VNL, larger = nVNL).
	N int
	// PageSize and PoolPages configure each shard's engine (db.Options):
	// a zero PoolPages, as every serving router passes, gives each shard
	// no buffer pool.
	PageSize  int
	PoolPages int
	// FS plus Dir select durable mode: each shard keeps a WAL at
	// Dir/shard-<i>.wal and the router keeps its epoch log at
	// Dir/epoch.log, all on FS. A nil FS runs everything in memory.
	FS  vfs.FS
	Dir string
	// Metrics receives the router's shard_* instrumentation; nil selects
	// obs.Default(). Each shard's own core_* metrics go to a private
	// per-shard registry so same-named gauges cannot clobber each other.
	Metrics *obs.Registry
}

// Hooks are test seams into the two-phase publish. All hooks run on the
// publishing goroutine (BeforeShardCommit on the per-shard commit
// goroutine) with the publish in flight; install them before any traffic
// via SetHooks.
type Hooks struct {
	// BeforePrepare runs before the prepare record is forced.
	BeforePrepare func(vn core.VN)
	// BeforeShardCommit runs before shard i commits the target VN —
	// blocking here freezes that shard mid-publish.
	BeforeShardCommit func(shard int, vn core.VN)
	// BeforeFlip runs after every shard committed, before the flip record
	// and the epoch pointer swing.
	BeforeFlip func(vn core.VN)
}

// epochState is the immutable published cross-shard version; readers load
// it with one atomic operation.
type epochState struct {
	vn core.VN
}

// Router fronts the shard set. One maintenance publish runs at a time
// (publishMu); any number of reader sessions run concurrently with it.
type Router struct {
	opts   Options
	shards []*core.Store
	dbs    []*db.Database
	wals   []*wal.Log
	elog   *epochLog // nil in volatile mode

	// epoch is the published cross-shard VN — the single atomic readers
	// load. Stored only under publishMu (and once at Open).
	epoch atomic.Pointer[epochState]

	// publishMu serializes maintenance publishes, table creates, and
	// broken-state inspection.
	publishMu sync.Mutex
	// broken poisons the router after a partial publish that cannot be
	// repaired in memory (some shards committed, some did not, and there
	// is no epoch log to roll forward from). Guarded by publishMu.
	broken error

	// schemas is the copy-on-write registry of base schemas by lowercase
	// table name — the router-side routing metadata.
	schemas atomic.Pointer[map[string]*catalog.Schema]

	hooks Hooks

	metrics *routerMetrics
}

type routerMetrics struct {
	epoch           *obs.Gauge
	flips           *obs.Counter
	flipNS          *obs.Histogram
	publishFailures *obs.Counter
	sessions        *obs.Gauge
	sessionsBegun   *obs.Counter
	beginRetries    *obs.Counter
	queries         *obs.Counter
	fanouts         *obs.Counter
	shardVN         []*obs.Gauge
	shardDeltas     []*obs.Counter
}

func newRouterMetrics(reg *obs.Registry, shards int) *routerMetrics {
	m := &routerMetrics{
		epoch:           reg.Gauge("shard_epoch", "published cross-shard epoch VN"),
		flips:           reg.Counter("shard_epoch_flips", "two-phase publishes completed (epoch pointer swings)"),
		flipNS:          reg.Histogram("shard_epoch_flip_ns", "two-phase publish latency, prepare record to epoch flip (ns)", obs.DurationBuckets),
		publishFailures: reg.Counter("shard_publish_failures", "maintenance publishes that failed before the epoch flip"),
		sessions:        reg.Gauge("shard_sessions", "live cross-shard reader sessions"),
		sessionsBegun:   reg.Counter("shard_sessions_begun", "cross-shard reader sessions begun"),
		beginRetries:    reg.Counter("shard_begin_retries", "BeginSession retries after losing the register/flip race"),
		queries:         reg.Counter("shard_queries_routed", "queries answered by a single shard via the key fast path"),
		fanouts:         reg.Counter("shard_queries_fanned_out", "queries fanned out to every shard and merged"),
	}
	for i := 0; i < shards; i++ {
		m.shardVN = append(m.shardVN, reg.Gauge(
			fmt.Sprintf("shard_%d_vn", i), fmt.Sprintf("shard %d committed VN", i)))
		m.shardDeltas = append(m.shardDeltas, reg.Counter(
			fmt.Sprintf("shard_%d_deltas", i), fmt.Sprintf("batch deltas routed to shard %d", i)))
	}
	return m
}

// Open builds the shard set. With Options.FS it recovers every shard from
// its WAL, replays the epoch log, and rolls lagging shards forward so the
// router reopens at one all-or-nothing epoch; without it the shards are
// volatile in-memory stores.
func Open(opts Options) (*Router, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	r := &Router{opts: opts, metrics: newRouterMetrics(reg, opts.Shards)}
	empty := map[string]*catalog.Schema{}
	r.schemas.Store(&empty)
	r.epoch.Store(&epochState{vn: 1})

	var recs []epochRecord
	for i := 0; i < opts.Shards; i++ {
		storeOpts := core.Options{N: opts.N, Metrics: obs.NewRegistry()}
		dbOpts := db.Options{PageSize: opts.PageSize, PoolPages: opts.PoolPages}
		if opts.FS == nil {
			engine := db.Open(dbOpts)
			st, err := core.Open(engine, storeOpts)
			if err != nil {
				return nil, err
			}
			r.shards = append(r.shards, st)
			r.dbs = append(r.dbs, engine)
			continue
		}
		path := r.walPath(i)
		st, engine, _, resume, err := wal.RecoverStreamFS(opts.FS, path, dbOpts, storeOpts)
		if err != nil {
			return nil, fmt.Errorf("shard: recovering shard %d: %w", i, err)
		}
		// Drop the torn tail before appending: a crash mid-append leaves
		// garbage that later appends must not interleave with.
		if f, ferr := opts.FS.OpenAppend(path); ferr == nil {
			if terr := f.Truncate(resume.CleanLSN); terr != nil {
				f.Close()
				return nil, fmt.Errorf("shard: truncating shard %d wal: %w", i, terr)
			}
			if cerr := f.Close(); cerr != nil {
				return nil, fmt.Errorf("shard: truncating shard %d wal: %w", i, cerr)
			}
		}
		lg, err := wal.AppendFS(opts.FS, path, wal.PolicyRedoOnly)
		if err != nil {
			return nil, fmt.Errorf("shard: opening shard %d wal: %w", i, err)
		}
		st.SetJournal(lg)
		r.shards = append(r.shards, st)
		r.dbs = append(r.dbs, engine)
		r.wals = append(r.wals, lg)
	}
	if opts.FS != nil {
		elog, history, err := openEpochLog(opts.FS, r.epochPath())
		if err != nil {
			return nil, err
		}
		r.elog = elog
		recs = history
		if err := r.recover(recs); err != nil {
			elog.Close()
			return nil, err
		}
	} else {
		// Volatile shards all open at VN 1; the epoch matches.
	}
	// The GC clamp closes the epoch/GC race for good: no shard ever
	// reclaims a pre-image a reader pinned at the published epoch (or one
	// about to register there) could still need.
	for _, st := range r.shards {
		st.SetGCFloorClamp(func() (core.VN, bool) { return r.EpochVN(), true })
	}
	r.publishShardGauges()
	return r, nil
}

func (r *Router) walPath(i int) string {
	if r.opts.Dir != "" {
		return fmt.Sprintf("%s/shard-%d.wal", r.opts.Dir, i)
	}
	return fmt.Sprintf("shard-%d.wal", i)
}

func (r *Router) epochPath() string {
	if r.opts.Dir != "" {
		return r.opts.Dir + "/epoch.log"
	}
	return "epoch.log"
}

// recover replays the epoch log against the freshly recovered shards:
// re-create any table a shard's WAL lost (the epoch log's create record is
// forced; a shard WAL's is not until its first commit), then resolve the
// last prepare. A prepare past the last flip is rolled forward — every
// shard below the target re-applies its partition and commits, which is
// idempotent because shard WAL recovery only replays durably committed
// transactions — and the flip record is appended, unless no shard ever
// committed it and it no longer applies, in which case it is rolled off
// with an abort record.
func (r *Router) recover(recs []epochRecord) error {
	epoch := core.VN(1)
	var pending *epochRecord
	schemas := map[string]*catalog.Schema{}
	var order []string
	for i := range recs {
		rec := &recs[i]
		switch rec.kind {
		case recCreate:
			name := strings.ToLower(rec.schema.Name)
			if _, dup := schemas[name]; !dup {
				order = append(order, name)
			}
			schemas[name] = rec.schema
		case recPrepare:
			pending = rec
		case recFlip:
			epoch = rec.vn
			pending = nil
		case recAbort:
			pending = nil
		}
	}
	for _, name := range order {
		schema := schemas[name]
		for i, st := range r.shards {
			if _, err := st.Table(schema.Name); err == nil {
				continue
			}
			if _, err := st.CreateTable(schema); err != nil {
				return fmt.Errorf("shard: re-creating %s on shard %d: %w", schema.Name, i, err)
			}
		}
	}
	r.schemas.Store(&schemas)

	if pending != nil && pending.vn > epoch {
		target := pending.vn
		if target != epoch+1 {
			return fmt.Errorf("shard: epoch log prepares VN %d over flipped VN %d", target, epoch)
		}
		if len(pending.parts) != len(r.shards) {
			return fmt.Errorf("shard: epoch log prepared %d partitions for %d shards", len(pending.parts), len(r.shards))
		}
		committed := 0
		for _, st := range r.shards {
			switch st.CurrentVN() {
			case target:
				committed++
			case target - 1:
			default:
				return fmt.Errorf("shard: shard VN %d outside prepared window [%d, %d]", st.CurrentVN(), target-1, target)
			}
		}
		for i, st := range r.shards {
			if st.CurrentVN() >= target {
				continue
			}
			m, err := st.BeginMaintenance()
			if err != nil {
				return fmt.Errorf("shard: rolling shard %d forward: %w", i, err)
			}
			if _, err := m.ApplyBatch(pending.parts[i]); err != nil {
				rerr := m.Rollback()
				if committed == 0 && rerr == nil {
					// No shard ever durably committed this batch and it no
					// longer applies: resolve the in-doubt prepare backward.
					return r.elog.appendAbort(target)
				}
				return fmt.Errorf("shard: rolling shard %d forward to VN %d: %w", i, target, err)
			}
			if err := m.Commit(); err != nil {
				return fmt.Errorf("shard: rolling shard %d forward to VN %d: %w", i, target, err)
			}
			committed++
		}
		if err := r.elog.appendFlip(target); err != nil {
			return err
		}
		epoch = target
	}
	for i, st := range r.shards {
		if st.CurrentVN() != epoch {
			return fmt.Errorf("shard: shard %d recovered at VN %d, epoch %d", i, st.CurrentVN(), epoch)
		}
	}
	r.epoch.Store(&epochState{vn: epoch})
	return nil
}

// SetHooks installs the publish test seams. Install before any traffic;
// the fields are read without synchronization once publishes run.
func (r *Router) SetHooks(h Hooks) { r.hooks = h }

// EpochVN returns the published cross-shard epoch.
func (r *Router) EpochVN() core.VN { return r.epoch.Load().vn }

// CurrentVN is EpochVN under the name the serving layer expects.
func (r *Router) CurrentVN() core.VN { return r.EpochVN() }

// N returns the shards' version count (uniform across the set).
func (r *Router) N() int { return r.shards[0].N() }

// Shards returns the number of shards.
func (r *Router) Shards() int { return len(r.shards) }

// Shard returns shard i's store, for tests and invariant checks.
func (r *Router) Shard(i int) *core.Store { return r.shards[i] }

// HasTable reports whether the named relation exists on the router.
func (r *Router) HasTable(name string) bool {
	_, err := r.schemaOf(name)
	return err == nil
}

// schemaOf resolves a table's base schema from the routing registry.
func (r *Router) schemaOf(table string) (*catalog.Schema, error) {
	if s := (*r.schemas.Load())[strings.ToLower(table)]; s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("%w: %q", core.ErrNotRegistered, table)
}

// CreateTable creates the versioned relation on every shard (rows will be
// distributed by key hash) and records it durably in the epoch log first,
// so a crash between per-shard creates is repaired at recovery.
func (r *Router) CreateTable(base *catalog.Schema) error {
	r.publishMu.Lock()
	defer r.publishMu.Unlock()
	if r.broken != nil {
		return fmt.Errorf("shard: router poisoned by earlier partial publish: %w", r.broken)
	}
	if _, exists := (*r.schemas.Load())[strings.ToLower(base.Name)]; exists {
		return fmt.Errorf("shard: table %q already exists", base.Name)
	}
	if r.elog != nil {
		if err := r.elog.appendCreate(base); err != nil {
			return err
		}
	}
	for i, st := range r.shards {
		if _, err := st.CreateTable(base); err != nil {
			return fmt.Errorf("shard: creating %s on shard %d: %w", base.Name, i, err)
		}
	}
	old := *r.schemas.Load()
	next := make(map[string]*catalog.Schema, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[strings.ToLower(base.Name)] = base
	r.schemas.Store(&next)
	return nil
}

// CreateTableSQL is CreateTable over a CREATE TABLE statement.
func (r *Router) CreateTableSQL(text string) error {
	schema, err := core.ParseCreateTable(text)
	if err != nil {
		return err
	}
	return r.CreateTable(schema)
}

// partition routes a batch: every delta lands on the shard its
// (table, unique key) hash picks, in submission order, so the sharded fold
// is the single-store fold re-bucketed.
func (r *Router) partition(deltas []core.Delta) ([][]core.Delta, error) {
	parts := make([][]core.Delta, len(r.shards))
	for i, d := range deltas {
		base, err := r.schemaOf(d.Table)
		if err != nil {
			return nil, err
		}
		p, err := core.PartitionDelta(base, d, i, len(r.shards))
		if err != nil {
			return nil, err
		}
		parts[p] = append(parts[p], d)
	}
	return parts, nil
}

// ApplyBatch runs one maintenance transaction across the shard set via the
// two-phase version publish:
//
//  1. Partition the batch and force a prepare record (durable mode).
//  2. Apply every partition on its shard — one goroutine per shard —
//     without committing. Any failure here rolls every shard back,
//     resolves the prepare with an abort record, and leaves the epoch
//     untouched.
//  3. Commit every shard. Each commit moves that shard's currentVN to the
//     target, but readers keep resolving the old epoch out of the shards'
//     back-versions until…
//  4. …the flip record is forced and the epoch pointer swings — the single
//     atomic store that makes the new version visible end-to-end.
//
// A commit-phase failure after some shard committed leaves a mixed set: in
// durable mode the forced prepare makes it recoverable (reopen rolls the
// stragglers forward), so the error is returned with the batch in doubt;
// in volatile mode the router is poisoned. ApplyBatch returns the new
// epoch and the merged per-shard stats.
func (r *Router) ApplyBatch(deltas []core.Delta) (core.VN, core.BatchStats, error) {
	r.publishMu.Lock()
	defer r.publishMu.Unlock()
	var stats core.BatchStats
	if r.broken != nil {
		return 0, stats, fmt.Errorf("shard: router poisoned by earlier partial publish: %w", r.broken)
	}
	target := r.epoch.Load().vn + 1
	parts, err := r.partition(deltas)
	if err != nil {
		return 0, stats, err
	}
	if h := r.hooks.BeforePrepare; h != nil {
		h(target)
	}
	start := time.Now()
	if r.elog != nil {
		if err := r.elog.appendPrepare(target, parts); err != nil {
			r.metrics.publishFailures.Inc()
			return 0, stats, err
		}
	}

	maints := make([]*core.Maintenance, len(r.shards))
	shardStats := make([]core.BatchStats, len(r.shards))
	errs := make([]error, len(r.shards))
	// Per-shard goroutines must forward panics to the publishing goroutine:
	// in the fault-injection harness a crash point is a panic that has to
	// unwind the caller (vfs.Recovering), not kill a pool goroutine.
	var (
		panicMu  sync.Mutex
		panicked any
	)
	catch := func() {
		if p := recover(); p != nil {
			panicMu.Lock()
			if panicked == nil {
				panicked = p
			}
			panicMu.Unlock()
		}
	}
	rethrow := func() {
		if panicked != nil {
			panic(panicked)
		}
	}
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer catch()
			m, err := r.shards[i].BeginMaintenance()
			if err != nil {
				errs[i] = err
				return
			}
			maints[i] = m
			shardStats[i], errs[i] = m.ApplyBatch(parts[i])
		}(i)
	}
	wg.Wait()
	rethrow()
	if err := firstError(errs); err != nil {
		for _, m := range maints {
			if m != nil {
				_ = m.Rollback()
			}
		}
		if r.elog != nil {
			if aerr := r.elog.appendAbort(target); aerr != nil {
				r.poisonLocked(aerr)
			}
		}
		r.metrics.publishFailures.Inc()
		return 0, stats, err
	}

	committed := make([]bool, len(r.shards))
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer catch()
			if h := r.hooks.BeforeShardCommit; h != nil {
				h(i, target)
			}
			if err := maints[i].Commit(); err != nil {
				errs[i] = err
				return
			}
			committed[i] = true
		}(i)
	}
	wg.Wait()
	rethrow()
	if err := firstError(errs); err != nil {
		r.metrics.publishFailures.Inc()
		anyCommitted := false
		for i, ok := range committed {
			if ok {
				anyCommitted = true
			} else if maints[i] != nil {
				_ = maints[i].Rollback()
			}
		}
		if !anyCommitted {
			if r.elog != nil {
				if aerr := r.elog.appendAbort(target); aerr != nil {
					r.poisonLocked(aerr)
				}
			}
			return 0, stats, err
		}
		if r.elog == nil {
			// Some shards committed, some did not, and there is nothing to
			// recover from: refuse all further publishes.
			r.poisonLocked(err)
		}
		return 0, stats, fmt.Errorf("shard: publish of VN %d in doubt: %w", target, err)
	}

	if h := r.hooks.BeforeFlip; h != nil {
		h(target)
	}
	if r.elog != nil {
		if err := r.elog.appendFlip(target); err != nil {
			// Every shard committed but the flip is not durable: recovery
			// would roll forward from the prepare, so stay consistent by
			// refusing to flip in memory too.
			r.metrics.publishFailures.Inc()
			r.poisonLocked(err)
			return 0, stats, err
		}
	}
	r.epoch.Store(&epochState{vn: target})
	for i := range r.shards {
		stats.Deltas += shardStats[i].Deltas
		stats.Applied += shardStats[i].Applied
		stats.Missing += shardStats[i].Missing
		r.metrics.shardDeltas[i].Add(int64(shardStats[i].Deltas))
	}
	r.metrics.flips.Inc()
	r.metrics.flipNS.ObserveSince(start)
	r.publishShardGauges()
	return target, stats, nil
}

// poisonLocked records the error that makes the router refuse all further
// publishes. Callers hold publishMu (ApplyBatch runs entirely under it).
func (r *Router) poisonLocked(err error) {
	if r.broken == nil {
		r.broken = err
	}
}

func (r *Router) publishShardGauges() {
	r.metrics.epoch.Set(int64(r.EpochVN()))
	for i, st := range r.shards {
		r.metrics.shardVN[i].Set(int64(st.CurrentVN()))
	}
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// GC runs one garbage-collection pass on every shard. Each shard's floor
// is clamped to the published epoch (see Open), so a pass is always safe
// to run concurrently with readers and publishes.
func (r *Router) GC() []core.GCStats {
	out := make([]core.GCStats, len(r.shards))
	for i, st := range r.shards {
		out[i] = st.GC()
	}
	return out
}

// CheckInvariants verifies every shard's structural invariants and — for a
// quiesced router (no publish in flight) — that every shard sits exactly
// at the published epoch.
func (r *Router) CheckInvariants() error {
	r.publishMu.Lock()
	defer r.publishMu.Unlock()
	epoch := r.EpochVN()
	for i, st := range r.shards {
		if err := st.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if vn := st.CurrentVN(); vn != epoch {
			return fmt.Errorf("shard: shard %d at VN %d, epoch %d", i, vn, epoch)
		}
	}
	return nil
}

// Close releases every shard's WAL and the epoch log.
func (r *Router) Close() error {
	var first error
	for _, lg := range r.wals {
		if err := lg.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.elog != nil {
		if err := r.elog.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
