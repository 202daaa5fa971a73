package repl

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// ErrDiverged marks a follower whose local log can no longer be reconciled
// with the primary's stream — the primary's WAL was recreated (epoch
// change) or the stream skipped bytes. The only remedy is a rebuild from
// scratch: discard the local WAL copy and epoch pin, then re-open.
var ErrDiverged = errors.New("repl: replica diverged from the primary; rebuild it from scratch")

// epochSuffix names the sidecar file pinning the primary epoch next to the
// local WAL copy. The pin is written before the first log byte, so a local
// log without a pin is an upgrade artifact or manual tampering — either
// way unsafe to resume.
const epochSuffix = ".epoch"

// Options configures a Replica. FS and Path locate the local WAL copy —
// the replica's only durable state; the store is rebuilt from it on every
// open.
type Options struct {
	// FS is the filesystem holding the local WAL copy. Nil selects the OS.
	FS vfs.FS
	// Path is the local WAL copy's path.
	Path string
	// DB sizes the local in-memory engine the log replays into.
	DB db.Options
	// Store configures the version store; N must match the primary's.
	Store core.Options
	// MaxLagVNs bounds CaughtUp: the replica reports ready while
	// primaryVN − replayedVN ≤ MaxLagVNs. 0 demands full parity.
	MaxLagVNs uint64
	// StaleAfter bounds CaughtUp in time: without a successful poll inside
	// the window the replica reports not caught up regardless of VN lag
	// (a partitioned follower cannot vouch for its own freshness).
	// 0 selects 15s.
	StaleAfter time.Duration
	// PollWait is the long-poll hold the tail loop requests when it is at
	// the durable end. 0 selects 2s.
	PollWait time.Duration
	// MaxBytes caps each requested segment. 0 accepts the feed's default.
	MaxBytes uint32
	// Logf receives tail-loop progress and errors. Nil discards.
	Logf func(format string, args ...any)
}

func (o Options) normalize() Options {
	if o.FS == nil {
		o.FS = vfs.Disk()
	}
	if o.StaleAfter == 0 {
		o.StaleAfter = 15 * time.Second
	}
	if o.PollWait == 0 {
		o.PollWait = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Replica is a WAL-shipping follower: it persists the primary's log bytes
// to a local copy, replays committed transactions into an in-process
// store, and publishes each replayed VN through the store's atomic
// snapshot swap. It implements server.ReplicaInfo, so plugging it into a
// server.Config turns that server into a read-only replica endpoint.
//
// The ingest invariant, in order, per segment: append the bytes to the
// local copy, apply complete records, and only if a transaction committed
// fsync the copy before publishing the new VN. Every VN the replica ever
// serves is therefore backed by locally durable bytes, and a crash at any
// point re-opens to some prefix of the primary's history — at-most-once
// and at-least-once apply both hold because the store itself is rebuilt
// from exactly the durable prefix on every open.
type Replica struct {
	opts  Options
	store *core.Store
	f     vfs.File // append handle on the local WAL copy

	mu    sync.Mutex // serializes Ingest and the fatal-error latch
	dec   wal.StreamDecoder
	ap    *applier
	fatal error

	epoch      atomic.Uint64
	nextLSN    atomic.Int64 // bytes received and written (page cache)
	durableLSN atomic.Int64 // bytes covered by a local fsync
	primaryVN  atomic.Uint64
	replayedVN atomic.Uint64
	lastPoll   atomic.Int64 // unix nanoseconds of the last successful poll

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	met replMetrics
}

type replMetrics struct {
	segments   *obs.Counter
	heartbeats *obs.Counter
	bytes      *obs.Counter
	commits    *obs.Counter
	reconnects *obs.Counter
	lagVNs     *obs.Gauge
	replayedVN *obs.Gauge
	primaryVN  *obs.Gauge
	durable    *obs.Gauge
	lastSeg    *obs.Gauge
	tailFatal  *obs.Gauge
}

func newReplMetrics(reg *obs.Registry) replMetrics {
	return replMetrics{
		segments:   reg.Counter("repl_segments_total", "replication segments ingested (heartbeats included)"),
		heartbeats: reg.Counter("repl_heartbeats_total", "empty replication segments (freshness-only)"),
		bytes:      reg.Counter("repl_bytes_total", "replication payload bytes ingested"),
		commits:    reg.Counter("repl_commits_replayed_total", "committed transactions replayed"),
		reconnects: reg.Counter("repl_reconnects_total", "tail-loop poll failures answered with a redial/backoff"),
		lagVNs:     reg.Gauge("repl_lag_vns", "primary VN minus replayed VN as of the last poll"),
		replayedVN: reg.Gauge("repl_replayed_vn", "highest VN replayed and published"),
		primaryVN:  reg.Gauge("repl_primary_vn", "primary currentVN as of the last poll"),
		durable:    reg.Gauge("repl_durable_lsn", "local WAL copy bytes covered by fsync"),
		lastSeg:    reg.Gauge("repl_last_segment_unix", "unix time of the last successful poll"),
		tailFatal:  reg.Gauge("repl_tail_fatal", "1 after an unrecoverable stream error (divergence)"),
	}
}

// Open recovers the replica's store from the local WAL copy and prepares
// incremental replay from its clean end. The torn tail past the clean end
// (a crash artifact) is truncated away so appended stream bytes land
// exactly at the resume LSN.
func Open(opts Options) (*Replica, error) {
	opts = opts.normalize()
	if opts.Path == "" {
		return nil, errors.New("repl: Options.Path is required")
	}
	store, _, _, resume, err := wal.RecoverStreamFS(opts.FS, opts.Path, opts.DB, opts.Store)
	if err != nil {
		return nil, fmt.Errorf("repl: recovering local WAL copy: %w", err)
	}
	epoch, err := readEpoch(opts.FS, opts.Path+epochSuffix)
	if err != nil {
		return nil, err
	}
	if epoch == 0 && resume.CleanLSN > 0 {
		return nil, fmt.Errorf("%w: local WAL copy has %d bytes but no epoch pin", ErrDiverged, resume.CleanLSN)
	}
	f, err := opts.FS.OpenAppend(opts.Path)
	if err != nil {
		return nil, fmt.Errorf("repl: opening local WAL copy: %w", err)
	}
	if err := f.Truncate(resume.CleanLSN); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("repl: truncating torn tail: %w", err)
	}
	reg := opts.Store.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	r := &Replica{
		opts:  opts,
		store: store,
		f:     f,
		ap:    newApplier(store, resume),
		stop:  make(chan struct{}),
		met:   newReplMetrics(reg),
	}
	r.dec.SetLSN(resume.CleanLSN)
	r.epoch.Store(epoch)
	r.nextLSN.Store(resume.CleanLSN)
	r.durableLSN.Store(resume.CleanLSN)
	r.replayedVN.Store(uint64(store.CurrentVN()))
	r.primaryVN.Store(uint64(store.CurrentVN()))
	r.met.durable.Set(resume.CleanLSN)
	r.met.replayedVN.Set(int64(store.CurrentVN()))
	return r, nil
}

// Store exposes the replica's version store: the server serves read
// sessions from it, tests scan it. Callers must not write to it.
func (r *Replica) Store() *core.Store { return r.store }

// Epoch returns the pinned primary epoch (0 until the first segment).
func (r *Replica) Epoch() uint64 { return r.epoch.Load() }

// NextLSN is the stream offset the replica expects next.
func (r *Replica) NextLSN() int64 { return r.nextLSN.Load() }

// DurableLSN is the local-copy byte count covered by fsync.
func (r *Replica) DurableLSN() int64 { return r.durableLSN.Load() }

// PrimaryVN is the primary's currentVN as of the last successful poll.
func (r *Replica) PrimaryVN() uint64 { return r.primaryVN.Load() }

// ReplayedVN is the highest VN replayed and published locally.
func (r *Replica) ReplayedVN() uint64 { return r.replayedVN.Load() }

// Err returns the sticky fatal stream error, if any.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fatal
}

// CaughtUp reports whether the replica is servable: no fatal stream error,
// a successful poll within StaleAfter, and VN lag within MaxLagVNs.
func (r *Replica) CaughtUp() bool {
	if r.Err() != nil {
		return false
	}
	last := r.lastPoll.Load()
	if last == 0 {
		return false
	}
	if time.Since(time.Unix(0, last)) > r.opts.StaleAfter {
		return false
	}
	p, v := r.primaryVN.Load(), r.replayedVN.Load()
	return p <= v || p-v <= r.opts.MaxLagVNs
}

// fail latches err as the replica's terminal state. Caller holds r.mu.
func (r *Replica) failLocked(err error) error {
	if r.fatal == nil {
		r.fatal = err
		r.met.tailFatal.Set(1)
		r.opts.Logf("repl: fatal: %v", err)
	}
	return r.fatal
}

// Ingest applies one polled segment: pin/verify the epoch, append the
// payload to the local copy, replay complete records, and — only when a
// transaction committed — fsync the copy before publishing the new VN.
// Heartbeats (empty payloads) just refresh the freshness clock. Any error
// is sticky: a failed replica must be rebuilt or re-opened, because a
// partially applied segment cannot be retried in memory.
func (r *Replica) Ingest(seg server.ReplSegment) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fatal != nil {
		return r.fatal
	}
	if seg.Epoch == 0 {
		return r.failLocked(fmt.Errorf("%w: segment with zero epoch", ErrDiverged))
	}
	if cur := r.epoch.Load(); cur == 0 {
		// First contact: pin the epoch durably before accepting any log
		// byte, so a restart can never mix incarnations.
		if err := writeEpoch(r.opts.FS, r.opts.Path+epochSuffix, seg.Epoch); err != nil {
			return r.failLocked(fmt.Errorf("repl: pinning epoch: %w", err))
		}
		r.epoch.Store(seg.Epoch)
	} else if seg.Epoch != cur {
		return r.failLocked(fmt.Errorf("%w: primary epoch changed %d -> %d", ErrDiverged, cur, seg.Epoch))
	}
	next := r.nextLSN.Load()
	if int64(seg.FromLSN) != next {
		return r.failLocked(fmt.Errorf("%w: segment at LSN %d, expected %d", ErrDiverged, seg.FromLSN, next))
	}
	r.notePoll(seg)
	if len(seg.Payload) == 0 {
		r.met.heartbeats.Inc()
		return nil
	}
	if _, err := r.f.Write(seg.Payload); err != nil {
		return r.failLocked(fmt.Errorf("repl: appending to local WAL copy: %w", err))
	}
	next += int64(len(seg.Payload))
	r.nextLSN.Store(next)
	r.met.bytes.Add(int64(len(seg.Payload)))
	r.dec.Feed(seg.Payload)
	commits, maxVN, err := r.ap.drain(&r.dec)
	if err != nil {
		return r.failLocked(fmt.Errorf("repl: replaying stream: %w", err))
	}
	if commits == 0 {
		return nil
	}
	// Durability before visibility: the fsync covers every received byte,
	// commit records included, so the VN about to be published survives a
	// local crash — re-opening replays to at least this VN.
	if err := r.f.Sync(); err != nil {
		return r.failLocked(fmt.Errorf("repl: fsync of local WAL copy: %w", err))
	}
	r.durableLSN.Store(next)
	r.met.durable.Set(next)
	r.met.commits.Add(int64(commits))
	if maxVN > 1 && uint64(maxVN) > r.replayedVN.Load() {
		r.store.InstallReplayedVN(maxVN)
		r.replayedVN.Store(uint64(maxVN))
		r.met.replayedVN.Set(int64(maxVN))
	}
	r.noteLag()
	return nil
}

// notePoll refreshes the freshness clock and primary-VN gauges from a
// successfully polled segment. Caller holds r.mu.
func (r *Replica) notePoll(seg server.ReplSegment) {
	now := time.Now()
	r.lastPoll.Store(now.UnixNano())
	if seg.PrimaryVN > r.primaryVN.Load() {
		r.primaryVN.Store(seg.PrimaryVN)
	}
	r.met.segments.Inc()
	r.met.primaryVN.Set(int64(r.primaryVN.Load()))
	r.met.lastSeg.Set(now.Unix())
	r.noteLag()
}

func (r *Replica) noteLag() {
	p, v := r.primaryVN.Load(), r.replayedVN.Load()
	if p > v {
		r.met.lagVNs.Set(int64(p - v))
	} else {
		r.met.lagVNs.Set(0)
	}
}

// PinnedVN is the GC pin this replica advertises in every poll: the floor
// of its active reader sessions, or its replayed VN when no session is
// open. Advertising the replayed VN while idle closes the begin-session
// race — a session about to pin replayedVN is protected before it exists,
// because the primary's GC floor is already clamped there. Zero (nothing
// replayed yet) advertises nothing.
func (r *Replica) PinnedVN() uint64 {
	pinned := r.replayedVN.Load()
	if floor, any := r.store.SessionFloor(); any && uint64(floor) < pinned {
		pinned = uint64(floor)
	}
	return pinned
}

// Catchup polls src synchronously until the replica reaches the feed's
// durable end — cold-start backfill, and the whole story for static feeds
// (the crash sweep and the catch-up benchmark drive it directly).
func (r *Replica) Catchup(src SegmentSource) error {
	for {
		seg, err := src.Poll(r.Epoch(), uint64(r.NextLSN()), r.PinnedVN(), r.opts.MaxBytes, 0)
		if err != nil {
			return err
		}
		if err := r.Ingest(seg); err != nil {
			return err
		}
		if uint64(r.NextLSN()) >= seg.DurableLSN {
			return nil
		}
	}
}

// Start launches the live tail loop: long-polls src, ingests, backs off
// and retries on transient errors, and stops permanently on divergence.
// Stop (or Close) joins the loop; Start may be called at most once.
func (r *Replica) Start(src SegmentSource) {
	r.wg.Add(1)
	go r.tail(src)
}

func (r *Replica) tail(src SegmentSource) {
	defer r.wg.Done()
	var backoff time.Duration
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-r.stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
		seg, err := src.Poll(r.Epoch(), uint64(r.NextLSN()), r.PinnedVN(), r.opts.MaxBytes, r.opts.PollWait)
		if err != nil {
			var we *server.WireError
			if errors.As(err, &we) && (we.Code == server.CodeReplRange || we.Code == server.CodeNotPrimary) {
				r.mu.Lock()
				_ = r.failLocked(fmt.Errorf("%w: primary refused the poll: %v", ErrDiverged, err))
				r.mu.Unlock()
				return
			}
			// Transient: the primary is down, restarting, or the link
			// dropped mid-segment. Redial with backoff; the resume LSN
			// makes the retry exact.
			r.met.reconnects.Inc()
			r.opts.Logf("repl: poll failed (retrying in %v): %v", nextBackoff(backoff), err)
			backoff = nextBackoff(backoff)
			continue
		}
		backoff = 0
		if err := r.Ingest(seg); err != nil {
			// Ingest latched the error; the loop is over.
			return
		}
	}
}

func nextBackoff(cur time.Duration) time.Duration {
	if cur == 0 {
		return 100 * time.Millisecond
	}
	if cur >= 5*time.Second {
		return 5 * time.Second
	}
	return cur * 2
}

// Stop ends the tail loop (if started) and joins it. The source is closed
// first so an in-flight network poll unblocks instead of running out its
// hold time.
func (r *Replica) Stop(src SegmentSource) {
	r.stopOnce.Do(func() { close(r.stop) })
	if src != nil {
		_ = src.Close()
	}
	r.wg.Wait()
}

// Close stops the tail loop and releases the local WAL copy handle. The
// store stays usable for reads (it is memory) but receives no more
// versions.
func (r *Replica) Close() error {
	r.Stop(nil)
	return r.f.Close()
}

// readEpoch loads the sidecar epoch pin. A missing file — or an empty one,
// the artifact of a crash between creating the pin and syncing it — reads
// as 0 (unpinned); Open cross-checks that against the local log length.
func readEpoch(fsys vfs.FS, path string) (uint64, error) {
	f, err := fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repl: opening epoch pin: %w", err)
	}
	defer func() { _ = f.Close() }()
	buf := make([]byte, 32)
	n, err := f.ReadAt(buf, 0)
	if n == 0 {
		if err != nil && !errors.Is(err, io.EOF) {
			return 0, fmt.Errorf("repl: reading epoch pin: %w", err)
		}
		return 0, nil
	}
	e, perr := strconv.ParseUint(string(buf[:n]), 10, 64)
	if perr != nil || e == 0 {
		return 0, fmt.Errorf("%w: unreadable epoch pin %q", ErrDiverged, string(buf[:n]))
	}
	return e, nil
}

// writeEpoch persists the epoch pin durably before any log byte lands.
func writeEpoch(fsys vfs.FS, path string, epoch uint64) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(strconv.FormatUint(epoch, 10))); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
