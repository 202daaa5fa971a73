package core

import (
	"time"

	"repro/internal/obs"
)

// Trace event names emitted by the version store. Arg semantics per event:
// session_begin/close/expired carry the sessionVN; maint_commit carries the
// transaction's physical-operation count; gc_pass carries tuples reclaimed;
// vn_advance carries the new currentVN in VN with Arg unused.
const (
	TraceSessionBegin   = "session_begin"
	TraceSessionClose   = "session_close"
	TraceSessionExpired = "session_expired"
	TraceMaintBegin     = "maint_begin"
	TraceMaintCommit    = "maint_commit"
	TraceMaintRollback  = "maint_rollback"
	TraceVNAdvance      = "vn_advance"
	TraceGCPass         = "gc_pass"
)

// storeMetrics holds the store's instrumentation points. Every field is a
// shared-registry metric, so several stores on one registry (the default in
// the binaries) aggregate into common series; the per-cell counters expose
// each Tables 2–4 outcome individually so the decision-table dynamics of
// §3.3 are observable at runtime, not only in bench harnesses.
type storeMetrics struct {
	tracer obs.Tracer

	sessionsBegun   *obs.Counter
	sessionsClosed  *obs.Counter
	sessionsExpired *obs.Counter
	activeSessions  *obs.Gauge

	currentVN   *obs.Gauge
	maintActive *obs.Gauge
	vnAdvances  *obs.Counter
	latchHold   *obs.Histogram

	maintBegun     *obs.Counter
	maintCommits   *obs.Counter
	commitRetries  *obs.Counter
	maintRollbacks *obs.Counter
	commitNS       *obs.Histogram
	rollbackNS     *obs.Histogram
	txnNS          *obs.Histogram

	logicalIns *obs.Counter
	logicalUpd *obs.Counter
	logicalDel *obs.Counter
	physIns    *obs.Counter
	physUpd    *obs.Counter
	physDel    *obs.Counter
	netFolds   *obs.Counter

	// Tables 2–4 outcome cells (§3.3). Row numbering follows the paper:
	// row 1 = tuple last touched by an earlier transaction, row 2 = tuple
	// already touched by this transaction; Table 2 row 3 = no existing
	// tuple. Table 4 row 2 splits by the recorded previous operation.
	cellT2R1          *obs.Counter // insert over an earlier delete → physical update, op=insert
	cellT2R2          *obs.Counter // insert over a same-txn delete → net effect update
	cellT2R3          *obs.Counter // fresh insert → physical insert
	cellT3R1          *obs.Counter // first-touch update → push-back + physical update
	cellT3R2          *obs.Counter // same-txn re-update → overwrite current values only
	cellT4R1          *obs.Counter // first-touch delete → physical update, op=delete
	cellT4R2Update    *obs.Counter // delete after same-txn update → net effect delete
	cellT4R2InsDelete *obs.Counter // delete after same-txn fresh insert → physical delete
	cellT4R2InsPop    *obs.Counter // delete after same-txn re-insert → pop restored history (nVNL)

	// Batch apply (ApplyBatch).
	batchApplies *obs.Counter
	batchDeltas  *obs.Counter
	batchNS      *obs.Histogram

	// Plan cache (Session.Query / QueryStmt / QueryPrepared).
	planHits   *obs.Counter
	planMisses *obs.Counter

	gcPasses  *obs.Counter
	gcScanned *obs.Counter
	gcRemoved *obs.Counter
	gcBytes   *obs.Counter

	// hwRecomputes counts in-place walks that recompute a table's
	// oldest-slot high-water mark.
	hwRecomputes *obs.Counter
}

func newStoreMetrics(reg *obs.Registry, tracer obs.Tracer) *storeMetrics {
	c := reg.Counter
	g := reg.Gauge
	h := func(name, help string) *obs.Histogram {
		return reg.Histogram(name, help, obs.DurationBuckets)
	}
	return &storeMetrics{
		tracer: tracer,

		sessionsBegun:   c("core_sessions_begun_total", "reader sessions begun"),
		sessionsClosed:  c("core_sessions_closed_total", "reader sessions closed"),
		sessionsExpired: c("core_sessions_expired_total", "reader sessions that hit ErrSessionExpired (§3.2/§5)"),
		activeSessions:  g("core_sessions_active", "live reader sessions"),

		currentVN:   g("core_current_vn", "committed database version number"),
		maintActive: g("core_maintenance_active", "1 while a maintenance transaction runs"),
		vnAdvances:  c("core_vn_advances_total", "currentVN increments (committed maintenance transactions)"),
		latchHold:   h("core_latch_hold_ns", "hold time of the global-variable latch (§3)"),

		maintBegun:     c("core_maint_begun_total", "maintenance transactions begun"),
		maintCommits:   c("core_maint_commits_total", "maintenance transactions committed"),
		commitRetries:  c("core_commit_retries_total", "transient version-install failures retried during Commit"),
		maintRollbacks: c("core_maint_rollbacks_total", "maintenance transactions rolled back"),
		commitNS:       h("core_maint_commit_ns", "latency of Commit (journal force + version install)"),
		rollbackNS:     h("core_maint_rollback_ns", "latency of Rollback (the logless revert)"),
		txnNS:          h("core_maint_txn_ns", "maintenance transaction duration, begin to finish"),

		logicalIns: c("core_maint_logical_inserts_total", "logical insert operations (§3.3)"),
		logicalUpd: c("core_maint_logical_updates_total", "logical update operations"),
		logicalDel: c("core_maint_logical_deletes_total", "logical delete operations"),
		physIns:    c("core_maint_physical_inserts_total", "physical tuple inserts"),
		physUpd:    c("core_maint_physical_updates_total", "physical in-place tuple updates"),
		physDel:    c("core_maint_physical_deletes_total", "physical tuple deletes"),
		netFolds:   c("core_maint_net_effect_folds_total", "second touches folded into net effects (Tables 2–4 row 2)"),

		cellT2R1:          c("core_maint_table2_row1_total", "insert over earlier delete: physical update, op=insert"),
		cellT2R2:          c("core_maint_table2_row2_total", "insert over same-txn delete: net effect update"),
		cellT2R3:          c("core_maint_table2_row3_total", "fresh insert: physical insert"),
		cellT3R1:          c("core_maint_table3_row1_total", "first-touch update: pre-update copy + physical update"),
		cellT3R2:          c("core_maint_table3_row2_total", "same-txn re-update: current values overwritten"),
		cellT4R1:          c("core_maint_table4_row1_total", "first-touch delete: physical update, op=delete"),
		cellT4R2Update:    c("core_maint_table4_row2_update_total", "delete after same-txn update: net effect delete"),
		cellT4R2InsDelete: c("core_maint_table4_row2_insert_total", "delete after same-txn insert: physical delete"),
		cellT4R2InsPop:    c("core_maint_table4_row2_insert_pop_total", "delete after same-txn re-insert: history popped (nVNL)"),

		batchApplies: c("core_maint_batches_total", "ApplyBatch calls (one batch folded through Tables 2–4)"),
		batchDeltas:  c("core_maint_batch_deltas_total", "logical deltas applied through ApplyBatch"),
		batchNS:      h("core_maint_batch_apply_ns", "latency of one ApplyBatch call, from its checks to its last write"),

		planHits:   c("core_plan_cache_hits_total", "queries (ad hoc and prepared) served from the cached compiled plan"),
		planMisses: c("core_plan_cache_misses_total", "queries that rewrote and compiled a fresh plan"),

		gcPasses:  c("core_gc_passes_total", "garbage-collection passes"),
		gcScanned: c("core_gc_scanned_total", "physical tuples examined by GC"),
		gcRemoved: c("core_gc_removed_total", "logically-deleted tuples physically reclaimed"),
		gcBytes:   c("core_gc_bytes_reclaimed_total", "bytes reclaimed by GC"),

		hwRecomputes: c("core_oldest_hw_recomputes_total", "table walks that recompute the oldest-slot high-water mark"),
	}
}

func (m *storeMetrics) trace(name string, vn VN, arg int64) {
	m.tracer.Emit(name, int64(vn), arg)
}

// latchAcquire takes the global-variable latch and returns the acquisition
// time so latchRelease can record the hold duration.
func (s *Store) latchAcquire() time.Time {
	s.mu.Lock()
	return time.Now()
}

// latchRelease drops the latch and records how long it was held. The
// observation happens after the unlock so measuring never extends the hold.
func (s *Store) latchRelease(acquired time.Time) {
	s.mu.Unlock()
	s.metrics.latchHold.ObserveSince(acquired)
}

// Metrics returns the registry this store's instrumentation writes to.
func (s *Store) Metrics() *obs.Registry { return s.reg }

// Tracer returns the event tracer this store emits to.
func (s *Store) Tracer() obs.Tracer { return s.metrics.tracer }
