// Package core implements 2VNL — the two-version no-locking concurrency
// control algorithm of Quass & Widom, "On-Line Warehouse View Maintenance"
// (SIGMOD 1997) — and its nVNL generalization (§5), layered on the embedded
// relational engine in internal/db exactly as the paper layers it on a
// conventional DBMS (§4): by extending relation schemas and rewriting
// queries, with no changes to the engine's concurrency control or storage.
//
// The algorithm in one paragraph: each tuple carries tupleVN (the version
// number of the last maintenance transaction to modify it), operation (the
// net logical operation — insert, update, or delete — that transaction
// performed on it), and a pre-update copy of every updatable attribute.
// Readers capture sessionVN = currentVN when their session begins and
// reconstruct each tuple as of that version (Table 1); the single
// maintenance transaction runs at maintenanceVN = currentVN+1 and folds its
// logical operations into the tuples so both versions stay available
// (Tables 2–4). Nobody places locks: readers run at READ UNCOMMITTED and
// the writer's mutations are protected only by the storage layer's
// short-duration page latches. nVNL stacks n−1 back-versions per tuple so a
// session survives up to n−1 maintenance transactions.
package core

import (
	"errors"
)

// VN is a database version number. currentVN starts at 1 and each committed
// maintenance transaction increments it.
type VN int64

// Op is the logical operation recorded in a tuple's operation attribute.
type Op string

// Logical operations. The stored value is the net effect of all operations
// a maintenance transaction performed on the tuple (§3.3): e.g. an insert
// followed by an update in the same transaction nets to insert.
const (
	OpNone   Op = ""
	OpInsert Op = "insert"
	OpUpdate Op = "update"
	OpDelete Op = "delete"
)

// Errors reported by the 2VNL layer.
var (
	// ErrSessionExpired is returned when a reader session has overlapped
	// more maintenance transactions than the version store can reconstruct
	// (more than n−1). The reader must begin a new session (§2.1).
	ErrSessionExpired = errors.New("core: reader session expired; begin a new session")
	// ErrSessionClosed is returned when using a closed session.
	ErrSessionClosed = errors.New("core: session is closed")
	// ErrMaintenanceActive is returned by BeginMaintenance when a
	// maintenance transaction is already running. The paper assumes an
	// external protocol serializes maintenance transactions (§2.2); this
	// implementation enforces it.
	ErrMaintenanceActive = errors.New("core: a maintenance transaction is already active")
	// ErrMaintenanceDone is returned when operating on a committed or
	// aborted maintenance transaction.
	ErrMaintenanceDone = errors.New("core: maintenance transaction already finished")
	// ErrInvalidMaintenanceOp is returned for operation sequences the
	// decision tables mark impossible: updating or deleting a
	// logically-deleted tuple, or inserting a key that is live.
	ErrInvalidMaintenanceOp = errors.New("core: invalid maintenance operation")
	// ErrNotRegistered is returned when a table name is not managed by the
	// version store.
	ErrNotRegistered = errors.New("core: table not registered with the version store")
)
