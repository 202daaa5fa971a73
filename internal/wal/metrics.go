package wal

import "repro/internal/obs"

// Process-wide WAL instrumentation, registered on the default registry: a
// process has one durability story, so unlike core.Store (whose registry is
// injectable for tests) the log's counters are global. Every Log in the
// process aggregates into these series; tests assert on deltas.
var (
	mAppends = obs.Default().Counter("wal_appends_total",
		"log records appended")
	mBytes = obs.Default().Counter("wal_bytes_total",
		"log bytes written, framing included")
	mBeforeBytes = obs.Default().Counter("wal_before_image_bytes_total",
		"log bytes attributable to before-images (zero under redo-only, §7)")
	mSyncs = obs.Default().Counter("wal_fsyncs_total",
		"log forces (flush + fsync) at commit")
	mRetries = obs.Default().Counter("wal_retries_total",
		"transient log write/sync failures retried under the bounded policy")
	mSyncNS = obs.Default().Histogram("wal_fsync_ns",
		"latency of one log force", obs.DurationBuckets)
	mRecoverRecords = obs.Default().Counter("wal_recover_records_total",
		"log records scanned during recovery")
	mRecoverReplayed = obs.Default().Counter("wal_recover_replayed_total",
		"physical tuple operations replayed during recovery")
	mRecoverTxns = obs.Default().Counter("wal_recover_committed_txns_total",
		"committed transactions found during recovery")
)
