// Package walerr holds known-bad and known-good WAL error handling for the
// walerr analyzer.
package walerr

import "wal"

// Journal mirrors core.Journal.
type Journal interface {
	LogBegin(vn int64)
	LogCommit(vn int64) error
}

// goodHandled consumes every error: no finding.
func goodHandled(l *wal.Log, j Journal) error {
	if err := l.LogCommit(1); err != nil {
		return err
	}
	if err := wal.Iterate("x", func() error { return nil }); err != nil {
		return err
	}
	if err := j.LogCommit(2); err != nil {
		return err
	}
	return l.Close()
}

// badBlankedClose blanks the teardown error: Close forces buffered
// records to stable storage, so its error is durability-critical too.
func badBlankedClose(l *wal.Log) {
	_ = l.Close() // want "error from wal.Close is blanked"
}

// goodVoidAppend calls an error-free journal method: nothing to check.
func goodVoidAppend(l *wal.Log, j Journal) {
	l.Append(nil)
	j.LogBegin(1)
}

// goodRecoverBound binds the trailing error: no finding.
func goodRecoverBound() (*wal.Log, error) {
	l, _, err := wal.Recover("x")
	return l, err
}

// badDroppedClose drops the close error entirely.
func badDroppedClose(l *wal.Log) {
	l.Close() // want "error from wal.Close is silently dropped"
}

// badDeferredDrop drops it under defer.
func badDeferredDrop(l *wal.Log) {
	defer l.Close() // want "error from wal.Close is silently dropped"
}

// badDroppedCommit drops a commit force.
func badDroppedCommit(l *wal.Log) {
	l.LogCommit(1) // want "error from wal.LogCommit is silently dropped"
}

// badDroppedJournalCommit drops a journal commit through the interface.
func badDroppedJournalCommit(j Journal) {
	j.LogCommit(1) // want "error from Journal.LogCommit is silently dropped"
}

// badBlankedCommit blanks a critical force error.
func badBlankedCommit(l *wal.Log) {
	_ = l.LogCommit(1) // want "error from wal.LogCommit is blanked"
}

// badBlankedJournalCommit blanks the interface form.
func badBlankedJournalCommit(j Journal) {
	_ = j.LogCommit(1) // want "error from Journal.LogCommit is blanked"
}

// badBlankedIterate blanks recovery iteration.
func badBlankedIterate() {
	_ = wal.Iterate("x", func() error { return nil }) // want "error from wal.Iterate is blanked"
}

// badBlankedRecoverError blanks the error position of a multi-result
// recovery call.
func badBlankedRecoverError() *wal.Log {
	l, n, _ := wal.Recover("x") // want "error from wal.Recover is blanked"
	_ = n
	return l
}

// badDroppedCheckpoint drops a checkpoint error.
func badDroppedCheckpoint() {
	wal.Checkpoint("x") // want "error from wal.Checkpoint is silently dropped"
}
