// Package vfs abstracts the engine's file I/O behind a narrow File/FS
// interface pair so that every byte the engine persists — WAL frames and
// checkpoints — can be routed through either the
// real operating system (OS) or a deterministic fault-injecting in-memory
// implementation (FaultFS) driven by a parsable script.
//
// The fault model distinguishes what the engine *observes* (write and sync
// errors, short writes) from what *survives a power cut* (only bytes
// covered by an honest Sync, plus an optional scripted prefix of the
// unsynced tail — a torn write). That split is what makes the crash-point
// sweep in internal/crashtest meaningful: the engine can believe a write
// happened while the durable image disagrees, exactly the §7 boundary the
// paper's logless-rollback argument has to survive.
package vfs

import (
	"io"
	"os"
	"time"
)

// File is the engine-facing handle: sequential appends (Write), positioned
// page writes (WriteAt), positioned reads (ReadAt), durability barriers
// (Sync), and teardown. The WAL and its replication feed use all but
// WriteAt, which no engine path calls any more.
type File interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS creates, opens, and manipulates files by path. Implementations must
// make Rename atomic with respect to crash recovery: after a power cut the
// path refers to either the old or the new content, never a mixture.
type FS interface {
	// Create creates (or truncates) a read-write file.
	Create(path string) (File, error)
	// OpenAppend opens a file for appending, creating it if absent.
	// Writes land at the end of the existing content.
	OpenAppend(path string) (File, error)
	// Open opens a file read-only.
	Open(path string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
}

// osFS is the passthrough implementation over the real filesystem.
type osFS struct{}

// Disk returns the passthrough OS filesystem. All path-based entry points
// in the wal package route through it, so production behaviour is
// unchanged by the indirection.
func Disk() FS { return osFS{} }

func (osFS) Create(path string) (File, error) { return os.Create(path) }

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
}

func (osFS) Open(path string) (File, error) { return os.Open(path) }

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

// RetryPolicy bounds how the engine retries a transiently failing I/O
// operation: Attempts total tries with exponential backoff between them.
// The zero value selects the defaults (3 attempts, 1 ms base backoff,
// real sleeping); NoRetry disables retrying. Sleep is injectable so tests
// and the crash harness advance without wall-clock delays.
type RetryPolicy struct {
	// Attempts is the total number of tries (first try included).
	// 0 selects DefaultRetryAttempts.
	Attempts int
	// Backoff is the sleep before the first retry; it doubles each
	// further retry. 0 selects DefaultRetryBackoff.
	Backoff time.Duration
	// Sleep is the clock used between attempts; nil selects time.Sleep.
	Sleep func(time.Duration)
}

// Retry defaults.
const (
	DefaultRetryAttempts = 3
	DefaultRetryBackoff  = time.Millisecond
)

// NoRetry is the single-attempt policy: the first failure is final.
var NoRetry = RetryPolicy{Attempts: 1}

// Normalize fills zero fields with the defaults.
func (p RetryPolicy) Normalize() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetryAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultRetryBackoff
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Wait sleeps the backoff for the given zero-based retry (Backoff << n,
// exponential). Callers normalize first.
func (p RetryPolicy) Wait(n int) {
	if n < 0 {
		n = 0
	}
	if n > 16 {
		n = 16
	}
	p.Sleep(p.Backoff << uint(n))
}
