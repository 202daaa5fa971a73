package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// Kind identifies a log record type.
type Kind byte

// Record kinds.
const (
	KindCreate Kind = iota + 1
	KindBegin
	KindInsert
	KindUpdate
	KindDelete
	KindCommit
	KindAbort
)

func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindBegin:
		return "begin"
	case KindInsert:
		return "insert"
	case KindUpdate:
		return "update"
	case KindDelete:
		return "delete"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// Record is one decoded log record. Fields are populated per kind.
type Record struct {
	Kind   Kind
	VN     core.VN
	Table  string
	RID    storage.RID
	Before catalog.Tuple // updates/deletes under PolicyFullImages
	After  catalog.Tuple // inserts/updates
	Schema *catalog.Schema
}

// Policy selects how much each record carries.
type Policy int

const (
	// PolicyRedoOnly logs only redo information — no before-images. Under
	// 2VNL this is sufficient (§7): aborted transactions revert from the
	// in-tuple pre-update versions, and recovery replays only committed
	// transactions.
	PolicyRedoOnly Policy = iota
	// PolicyFullImages additionally logs the before-image of every update
	// and delete — what a conventional in-place engine must write to
	// support undo. Used as the comparison baseline.
	PolicyFullImages
)

func (p Policy) String() string {
	if p == PolicyFullImages {
		return "full-images"
	}
	return "redo-only"
}

// Stats summarizes log activity.
type Stats struct {
	Records     int64
	Bytes       int64
	BeforeBytes int64 // bytes attributable to before-images
	Syncs       int64
	Retries     int64 // transient write/sync failures retried successfully or not
}

// flushThreshold is the buffered-byte count beyond which append flushes
// opportunistically (commits force a flush regardless).
const flushThreshold = 1 << 16

// Log is an append-only record log on one file. It implements core.Journal,
// so installing it on a Store journals every maintenance transaction.
//
// Writes are buffered in a plain byte slice rather than a bufio.Writer: on
// a partial write the buffer advances by exactly the bytes the file
// accepted, so a bounded retry (see SetRetry) resumes mid-record instead of
// duplicating or dropping the torn prefix.
type Log struct {
	policy Policy
	retry  vfs.RetryPolicy

	mu    sync.Mutex
	f     vfs.File
	buf   []byte
	stats Stats
	err   error // first unrecovered write error; subsequent appends are dropped
	// closed is set by Close: nothing becomes durable after it, so
	// WaitDurable returns at once.
	closed bool

	// Byte-offset durability tracking. Offsets are positions in the log
	// file itself, so they double as the replication stream's LSNs: the
	// feed serves only bytes below durableB, never the page-cache tail.
	flushedB  int64         // bytes handed to (and accepted by) the file
	durableB  int64         // bytes covered by a successful fsync
	durableCh chan struct{} // closed and replaced when durableB advances
}

// Create creates (or truncates) a log file with the given policy on the
// real filesystem.
func Create(path string, policy Policy) (*Log, error) {
	return CreateFS(vfs.Disk(), path, policy)
}

// CreateFS is Create over an explicit filesystem.
func CreateFS(fsys vfs.FS, path string, policy Policy) (*Log, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	return &Log{policy: policy, retry: vfs.RetryPolicy{}.Normalize(), f: f}, nil
}

// Append opens an existing log for appending (after recovery) on the real
// filesystem. The caller is responsible for having recovered from the log
// first; appended records continue the history.
func Append(path string, policy Policy) (*Log, error) {
	return AppendFS(vfs.Disk(), path, policy)
}

// AppendFS is Append over an explicit filesystem.
func AppendFS(fsys vfs.FS, path string, policy Policy) (*Log, error) {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &Log{policy: policy, retry: vfs.RetryPolicy{}.Normalize(), f: f}, nil
}

// SetRetry replaces the bounded retry policy applied to transiently failing
// writes and syncs. The default is vfs.RetryPolicy{}.Normalize(); pass
// vfs.NoRetry to make the first failure final.
func (l *Log) SetRetry(p vfs.RetryPolicy) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retry = p.Normalize()
}

// Close forces buffered records to stable storage and closes the file. Both
// the sync and the close error are surfaced: a WAL whose final force failed
// has not discharged the write-ahead rule, and silently dropping that error
// would let a caller treat an undurable log as durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	syncErr := l.syncLocked()
	closeErr := l.f.Close()
	// Wake every WaitDurable caller: it sees the log closed and returns
	// instead of sleeping out its timeout.
	l.closed = true
	l.wakeLocked()
	return errors.Join(syncErr, closeErr)
}

// Stats returns a snapshot of the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Err returns the first write error, if any. Journal methods have no error
// returns (except LogCommit), so persistent failures surface here and at
// commit time.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// append frames and buffers one record: [len u32][crc u32][payload].
// Appending into the in-memory buffer cannot fail; file errors surface from
// the opportunistic flush (sticky, reported by Err and at commit).
func (l *Log) append(payload []byte, beforeBytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.stats.Records++
	l.stats.Bytes += int64(len(hdr) + len(payload))
	l.stats.BeforeBytes += int64(beforeBytes)
	mAppends.Inc()
	mBytes.Add(int64(len(hdr) + len(payload)))
	mBeforeBytes.Add(int64(beforeBytes))
	if len(l.buf) >= flushThreshold {
		_ = l.flushLocked() // error is sticky; commit will surface it
	}
}

// flushLocked drains the buffer to the file with bounded retries. The
// buffer advances by every byte the file accepts — including the prefix of
// a torn write — so a retry resumes exactly where the tear happened. On
// exhaustion the error becomes sticky and the unflushed suffix stays
// buffered.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	failures := 0
	for len(l.buf) > 0 {
		n, err := l.f.Write(l.buf)
		l.buf = l.buf[n:]
		l.flushedB += int64(n)
		if err == nil {
			continue
		}
		failures++
		if failures >= l.retry.Attempts {
			l.err = err
			return err
		}
		l.stats.Retries++
		mRetries.Inc()
		l.retry.Wait(failures - 1)
	}
	l.buf = nil
	return nil
}

// sync flushes buffered records and fsyncs the file, retrying transient
// failures per the retry policy. Every commit forces the log on its own:
// the paper runs one maintenance transaction at a time, so a log never has
// two committers to batch into one fsync. A failed force leaves a sticky
// error, so it wakes WaitDurable callers, which return on it.
func (l *Log) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if err != nil {
		l.wakeLocked()
	}
	return err
}

func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	covered := l.flushedB
	start := time.Now()
	for failures := 0; ; {
		err := l.f.Sync()
		if err == nil {
			break
		}
		failures++
		if failures >= l.retry.Attempts {
			l.err = err
			return err
		}
		l.stats.Retries++
		mRetries.Inc()
		l.retry.Wait(failures - 1)
	}
	l.advanceDurableLocked(covered)
	l.stats.Syncs++
	mSyncs.Inc()
	mSyncNS.ObserveSince(start)
	return nil
}

// advanceDurableLocked raises the durable byte offset and wakes WaitDurable
// callers. Called with mu held after a successful fsync covering bytes
// [0, covered).
func (l *Log) advanceDurableLocked(covered int64) {
	if covered <= l.durableB {
		return
	}
	l.durableB = covered
	l.wakeLocked()
}

// wakeLocked wakes every WaitDurable caller to recheck its condition.
func (l *Log) wakeLocked() {
	if l.durableCh != nil {
		close(l.durableCh)
		l.durableCh = nil
	}
}

// DurableLSN returns the byte offset through which the log file is known
// durable: every byte below it was covered by a successful fsync. Byte
// offsets in the log file are the replication stream's LSNs.
func (l *Log) DurableLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableB
}

// WaitDurable blocks until the durable LSN exceeds from, the timeout
// elapses, the log hits a sticky error or the log is closed, and returns the
// durable LSN at that point. The replication feed long-polls on it so an
// idle primary costs followers no busy-spin.
func (l *Log) WaitDurable(from int64, timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durableB <= from && l.err == nil && !l.closed {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		if l.durableCh == nil {
			l.durableCh = make(chan struct{})
		}
		ch := l.durableCh
		l.mu.Unlock()
		t := time.NewTimer(remain)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
		l.mu.Lock()
	}
	return l.durableB
}

// --- core.Journal implementation ---------------------------------------

// LogCreate implements core.Journal.
func (l *Log) LogCreate(base *catalog.Schema) {
	buf := []byte{byte(KindCreate)}
	buf = appendSchema(buf, base)
	l.append(buf, 0)
}

// LogBegin implements core.Journal.
func (l *Log) LogBegin(vn core.VN) {
	buf := []byte{byte(KindBegin)}
	buf = binary.AppendVarint(buf, int64(vn))
	l.append(buf, 0)
}

func (l *Log) tupleRecord(kind Kind, table string, rid storage.RID, before, after catalog.Tuple) {
	buf := []byte{byte(kind)}
	buf = appendString(buf, table)
	buf = binary.AppendVarint(buf, int64(rid.Page))
	buf = binary.AppendVarint(buf, int64(rid.Slot))
	beforeBytes := 0
	hasBefore := l.policy == PolicyFullImages && before != nil
	if hasBefore {
		buf = append(buf, 1)
		mark := len(buf)
		buf = appendTuple(buf, before)
		beforeBytes = len(buf) - mark
	} else {
		buf = append(buf, 0)
	}
	if after != nil {
		buf = append(buf, 1)
		buf = appendTuple(buf, after)
	} else {
		buf = append(buf, 0)
	}
	l.append(buf, beforeBytes)
}

// LogInsert implements core.Journal.
func (l *Log) LogInsert(table string, rid storage.RID, after catalog.Tuple) {
	l.tupleRecord(KindInsert, table, rid, nil, after)
}

// LogUpdate implements core.Journal.
func (l *Log) LogUpdate(table string, rid storage.RID, before, after catalog.Tuple) {
	l.tupleRecord(KindUpdate, table, rid, before, after)
}

// LogDelete implements core.Journal.
func (l *Log) LogDelete(table string, rid storage.RID, before catalog.Tuple) {
	l.tupleRecord(KindDelete, table, rid, before, nil)
}

// LogCommit implements core.Journal: append the commit record and force the
// log to stable storage (the write-ahead rule).
func (l *Log) LogCommit(vn core.VN) error {
	buf := []byte{byte(KindCommit)}
	buf = binary.AppendVarint(buf, int64(vn))
	l.append(buf, 0)
	return l.sync()
}

// LogAbort implements core.Journal.
func (l *Log) LogAbort(vn core.VN) {
	buf := []byte{byte(KindAbort)}
	buf = binary.AppendVarint(buf, int64(vn))
	l.append(buf, 0)
}

var _ core.Journal = (*Log)(nil)

// --- reading ------------------------------------------------------------

// ErrTornRecord marks a truncated or corrupted tail record; iteration stops
// there, which is the normal crash-recovery behaviour.
var ErrTornRecord = errors.New("wal: torn or corrupt record")

// Iterate reads the log file at path, calling fn for each decoded record in
// order. A torn or corrupted tail ends iteration silently (standard crash
// semantics); corruption before the tail returns ErrTornRecord.
func Iterate(path string, fn func(*Record) error) error {
	return IterateFS(vfs.Disk(), path, fn)
}

// IterateFS is Iterate over an explicit filesystem.
func IterateFS(fsys vfs.FS, path string, fn func(*Record) error) error {
	_, err := IterateLSNFS(fsys, path, func(_ int64, r *Record) error { return fn(r) })
	return err
}

// IterateLSNFS is IterateFS with byte-offset (LSN) reporting: fn receives
// each record along with the offset of the first byte past its frame, and
// the returned offset is the clean end of the log — the boundary after the
// last whole, checksummed record, where the torn tail (if any) begins. A
// replication follower truncates its local copy to the clean end and
// resumes fetching from it.
func IterateLSNFS(fsys vfs.FS, path string, fn func(end int64, r *Record) error) (int64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, int64(1)<<62), 1<<16)
	off := int64(0)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // clean end or torn header at tail
			}
			return off, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if length > 1<<28 {
			return off, nil // implausible length: treat as torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, nil // torn tail
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return off, nil // corrupt tail
		}
		rec, err := decode(payload)
		if err != nil {
			return off, fmt.Errorf("%w: %v", ErrTornRecord, err)
		}
		off += int64(len(hdr)) + int64(length)
		if err := fn(off, rec); err != nil {
			return off, err
		}
	}
}

func decode(payload []byte) (*Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	rec := &Record{Kind: Kind(payload[0])}
	buf := payload[1:]
	var err error
	switch rec.Kind {
	case KindCreate:
		rec.Schema, _, err = readSchema(buf)
		return rec, err
	case KindBegin, KindCommit, KindAbort:
		vn, sz := binary.Varint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("bad vn")
		}
		rec.VN = core.VN(vn)
		return rec, nil
	case KindInsert, KindUpdate, KindDelete:
		rec.Table, buf, err = readString(buf)
		if err != nil {
			return nil, err
		}
		pg, sz := binary.Varint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("bad page")
		}
		buf = buf[sz:]
		sl, sz := binary.Varint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("bad slot")
		}
		buf = buf[sz:]
		rec.RID = storage.RID{Page: int(pg), Slot: int(sl)}
		if len(buf) < 1 {
			return nil, fmt.Errorf("truncated flags")
		}
		hasBefore := buf[0] != 0
		buf = buf[1:]
		if hasBefore {
			rec.Before, buf, err = readTuple(buf)
			if err != nil {
				return nil, err
			}
		}
		if len(buf) < 1 {
			return nil, fmt.Errorf("truncated flags")
		}
		hasAfter := buf[0] != 0
		buf = buf[1:]
		if hasAfter {
			rec.After, _, err = readTuple(buf)
			if err != nil {
				return nil, err
			}
		}
		return rec, nil
	default:
		return nil, fmt.Errorf("unknown kind %d", payload[0])
	}
}
