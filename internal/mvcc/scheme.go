// Package mvcc implements the concurrency-control schemes the 2VNL paper
// compares against in §6 — strict two-phase locking, two-version 2PL
// [BHR80, SR81], and multi-version 2PL with a version pool [CFL+82],
// including the per-page version-cache refinement of [BC92b] — plus the
// "nightly batch" offline discipline of §1.1 and an adapter presenting the
// 2VNL store itself. All schemes run over the same storage engine and
// expose one uniform interface, so the experiments can measure, per scheme:
// reader/writer blocking, extra I/O per read and write, and storage
// overhead.
//
// The data model is the paper's summary-table essence reduced to its
// minimum: a keyed relation (k → v) where k is the group-by key and v the
// updatable aggregate.
package mvcc

import (
	"errors"

	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/txn"
)

// KV is one logical tuple of the benchmark relation.
type KV struct {
	K, V int64
}

// Config sizes a scheme's private engine instance.
type Config struct {
	// PageSize in bytes (0 = storage.DefaultPageSize).
	PageSize int
	// PoolPages is the buffer-pool capacity (0 = 1024).
	PoolPages int
	// CacheSlots is, for the BC92-style MV2PL variant, the number of
	// previous versions kept on the tuple's own page before spilling to
	// the global version pool. 0 selects the plain CFL+82 pool.
	CacheSlots int
}

// engine opens the scheme's private database. Unlike db.Options, a zero
// PoolPages here still gives a pool of 1024 pages: every scheme counts
// page I/O, which is what §6 compares.
func (c Config) engine() *db.Database {
	pages := c.PoolPages
	if pages == 0 {
		pages = 1024
	}
	return db.Open(db.Options{PageSize: c.PageSize, PoolPages: pages})
}

// Errors shared by the schemes.
var (
	// ErrReaderBlocked is returned by schemes that refuse reads during
	// maintenance (the offline scheme) — the unavailability the paper's
	// Figure 1 depicts.
	ErrReaderBlocked = errors.New("mvcc: warehouse unavailable to readers during maintenance")
	// ErrExpired is returned by the 2VNL adapter when a reader outlived
	// its reconstructible versions.
	ErrExpired = errors.New("mvcc: reader snapshot expired")
	// ErrAborted is returned when a transaction must abort (deadlock
	// victim).
	ErrAborted = errors.New("mvcc: transaction aborted")
)

// Reader is a read-only transaction (the paper's reader session).
type Reader interface {
	// Get returns the value of key k in the reader's consistent view.
	Get(k int64) (v int64, ok bool, err error)
	// ScanSum scans the whole relation in the reader's view, returning the
	// sum of v and the tuple count — the roll-up query of Example 2.1.
	ScanSum() (sum int64, count int, err error)
	// Close ends the reader, releasing any read locks.
	Close() error
}

// Writer is the single maintenance transaction.
type Writer interface {
	Insert(k, v int64) error
	Update(k, v int64) error
	Delete(k int64) error
	// Commit publishes the batch. For 2V2PL this includes the certify
	// waits the paper attributes to that scheme.
	Commit() error
	Abort() error
}

// Stats is a point-in-time snapshot of a scheme's cost counters.
type Stats struct {
	// IO is the scheme's engine buffer-pool activity.
	IO storage.IOStats
	// Locks is lock-manager activity (zero for lock-free schemes).
	Locks txn.Stats
	// StorageBytes is the total allocated table + version storage
	// (pages are not returned to the OS, so this never shrinks).
	StorageBytes int
	// LiveBytes counts bytes held by live records only; garbage
	// collection shrinks it.
	LiveBytes int
	// PoolBytes is the version-pool portion of StorageBytes (MV2PL only).
	PoolBytes int
	// ChainReads counts version-pool records visited by readers (the
	// extra read I/O source in CFL+82).
	ChainReads int64
	// PoolWrites counts copy-outs of previous versions to the pool (the
	// extra write I/O source).
	PoolWrites int64
	// CacheHits counts previous-version reads served by the BC92 in-page
	// cache (no pool I/O).
	CacheHits int64
}

// Scheme is one concurrency-control discipline under test.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Load bulk-loads the relation before the experiment (no versioning,
	// no locking — the warehouse's initial state).
	Load(rows []KV) error
	// BeginReader starts a reader transaction.
	BeginReader() (Reader, error)
	// BeginWriter starts the maintenance transaction. Schemes enforce one
	// writer at a time.
	BeginWriter() (Writer, error)
	// Stats snapshots the cost counters.
	Stats() Stats
	// GC reclaims versions no active reader needs; returns records
	// reclaimed. No-op for schemes without version storage.
	GC() int
}
