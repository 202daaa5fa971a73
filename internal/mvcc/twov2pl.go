package mvcc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/txn"
)

// pendingOp is the pending_op column's domain: the uncommitted operation a
// writer has staged on a tuple. A named type so vnlvet's tableexhaustive
// analyzer checks switches over it.
type pendingOp string

const (
	pendingInsert pendingOp = "i"
	pendingUpdate pendingOp = "u"
	pendingDelete pendingOp = "d"
)

// twoVSchema stores both 2V2PL versions in one tuple: the committed value
// and the writer's pending (uncommitted) state.
//
//	k          key
//	v          committed value (NULL when the tuple is a pending insert)
//	pending_v  writer's new value (NULL when no pending write)
//	pending_op ""/i/u/d (see pendingOp)
func twoVSchema() *catalog.Schema {
	return catalog.MustSchema("acct", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
		{Name: "pending_v", Type: catalog.TypeInt, Length: 8, Updatable: true},
		{Name: "pending_op", Type: catalog.TypeString, Length: 1, Updatable: true},
	}, "k")
}

// TwoV2PL implements two-version two-phase locking [BHR80, SR81]: the
// writer builds a second (pending) version of each tuple it touches under W
// locks that are compatible with readers' S locks, so writing never blocks
// reading. At commit, every W lock is upgraded to a Certify lock, which is
// incompatible with S — the writer must wait for all readers of its
// modified tuples to finish. That commit delay is precisely the 2V2PL
// drawback §6 contrasts with 2VNL, which deletes nothing at commit and so
// never waits.
type TwoV2PL struct {
	d   *db.Database
	tbl *db.Table
	mgr *txn.Manager

	mu     sync.Mutex
	writer bool
}

// NewTwoV2PL builds the scheme with its own engine instance.
func NewTwoV2PL(cfg Config) (*TwoV2PL, error) {
	d := cfg.engine()
	tbl, err := d.CreateTable(twoVSchema())
	if err != nil {
		return nil, err
	}
	s := &TwoV2PL{d: d, tbl: tbl, mgr: txn.NewManager()}
	instrument(d, s.mgr, s.Name())
	return s, nil
}

// Name implements Scheme.
func (s *TwoV2PL) Name() string { return "2V2PL" }

// Load implements Scheme.
func (s *TwoV2PL) Load(rows []KV) error {
	for _, r := range rows {
		_, err := s.tbl.Insert(catalog.Tuple{
			catalog.NewInt(r.K), catalog.NewInt(r.V), catalog.Null, catalog.Null,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats implements Scheme.
func (s *TwoV2PL) Stats() Stats {
	return Stats{
		IO:           s.d.Pool().Stats(),
		Locks:        s.mgr.Stats(),
		StorageBytes: s.tbl.Heap().Bytes(),
		LiveBytes:    s.tbl.Len() * s.tbl.Heap().RowBytes(),
	}
}

// GC implements Scheme: pending state is cleaned at commit, nothing to do.
func (s *TwoV2PL) GC() int { return 0 }

type twoVReader struct {
	s  *TwoV2PL
	tx *txn.Txn
}

// BeginReader implements Scheme. Readers take S locks per tuple, held to
// Close (repeatable reads); they never block behind the writer's W locks.
func (s *TwoV2PL) BeginReader() (Reader, error) {
	return &twoVReader{s: s, tx: s.mgr.Begin(txn.Serializable)}, nil
}

func (r *twoVReader) readCommitted(rid storage.RID) (int64, bool, error) {
	if _, err := r.tx.AcquireRead(txn.TupleResource("acct", rid)); err != nil {
		if errors.Is(err, txn.ErrDeadlock) {
			r.tx.Abort()
			return 0, false, fmt.Errorf("%w: %v", ErrAborted, err)
		}
		return 0, false, err
	}
	t, err := r.s.tbl.Get(rid)
	if err != nil {
		return 0, false, nil
	}
	if t[1].IsNull() {
		return 0, false, nil // pending insert: no committed version yet
	}
	return t[1].Int(), true, nil
}

func (r *twoVReader) Get(k int64) (int64, bool, error) {
	rid, ok := r.s.tbl.SearchKey(kvKey(k))
	if !ok {
		return 0, false, nil
	}
	return r.readCommitted(rid)
}

func (r *twoVReader) ScanSum() (int64, int, error) {
	var rids []storage.RID
	r.s.tbl.Scan(func(rid storage.RID, _ catalog.Tuple) bool {
		rids = append(rids, rid)
		return true
	})
	var sum int64
	count := 0
	for _, rid := range rids {
		v, ok, err := r.readCommitted(rid)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			sum += v
			count++
		}
	}
	return sum, count, nil
}

func (r *twoVReader) Close() error { return r.tx.Commit() }

type twoVWriter struct {
	s       *TwoV2PL
	tx      *txn.Txn
	written []storage.RID
}

// BeginWriter implements Scheme.
func (s *TwoV2PL) BeginWriter() (Writer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer {
		return nil, errors.New("mvcc: 2V2PL writer already active")
	}
	s.writer = true
	return &twoVWriter{s: s, tx: s.mgr.Begin(txn.Serializable)}, nil
}

func (w *twoVWriter) wLock(rid storage.RID) error {
	if err := w.tx.AcquireW(txn.TupleResource("acct", rid)); err != nil {
		if errors.Is(err, txn.ErrDeadlock) {
			w.tx.Abort()
			w.finish()
			return fmt.Errorf("%w: %v", ErrAborted, err)
		}
		return err
	}
	return nil
}

func (w *twoVWriter) Insert(k, v int64) error {
	// A pending insert has no committed version; readers skip it.
	rid, err := w.s.tbl.Insert(catalog.Tuple{
		catalog.NewInt(k), catalog.Null, catalog.NewInt(v), catalog.NewString(string(pendingInsert)),
	})
	if err != nil {
		return err
	}
	if err := w.wLock(rid); err != nil {
		return err
	}
	w.written = append(w.written, rid)
	return nil
}

func (w *twoVWriter) write(k int64, op pendingOp, v catalog.Value) error {
	rid, ok := w.s.tbl.SearchKey(kvKey(k))
	if !ok {
		return fmt.Errorf("mvcc: %s of missing key %d", op, k)
	}
	if err := w.wLock(rid); err != nil {
		return err
	}
	t, err := w.s.tbl.Get(rid)
	if err != nil {
		return err
	}
	t[2] = v
	t[3] = catalog.NewString(string(op))
	if err := w.s.tbl.Update(rid, t); err != nil {
		return err
	}
	w.written = append(w.written, rid)
	return nil
}

func (w *twoVWriter) Update(k, v int64) error { return w.write(k, pendingUpdate, catalog.NewInt(v)) }

func (w *twoVWriter) Delete(k int64) error { return w.write(k, pendingDelete, catalog.Null) }

func (w *twoVWriter) finish() {
	w.s.mu.Lock()
	w.s.writer = false
	w.s.mu.Unlock()
}

// Commit upgrades every written tuple's W lock to Certify — waiting for all
// readers that have read those tuples — then installs the pending versions
// and discards the previous ones (the version deletion that forces 2V2PL to
// wait, per §6).
func (w *twoVWriter) Commit() error {
	defer w.finish()
	for _, rid := range w.written {
		if err := w.tx.Certify(txn.TupleResource("acct", rid)); err != nil {
			if errors.Is(err, txn.ErrDeadlock) {
				w.rollbackPending()
				w.tx.Abort()
				return fmt.Errorf("%w: certify: %v", ErrAborted, err)
			}
			return err
		}
	}
	for _, rid := range w.written {
		t, err := w.s.tbl.Get(rid)
		if err != nil {
			continue
		}
		if t[3].IsNull() {
			continue // already installed (rid written more than once)
		}
		switch pendingOp(t[3].Str()) {
		case pendingDelete:
			if err := w.s.tbl.Delete(rid); err != nil {
				return err
			}
		case pendingInsert, pendingUpdate: // pending becomes committed
			t[1] = t[2]
			t[2], t[3] = catalog.Null, catalog.Null
			if err := w.s.tbl.Update(rid, t); err != nil {
				return err
			}
		default:
			return fmt.Errorf("mvcc: unknown pending op %q on %v", t[3].Str(), rid)
		}
	}
	return w.tx.Commit()
}

func (w *twoVWriter) rollbackPending() {
	for _, rid := range w.written {
		t, err := w.s.tbl.Get(rid)
		if err != nil {
			continue
		}
		if t[1].IsNull() { // pending insert: remove
			_ = w.s.tbl.Delete(rid)
			continue
		}
		t[2], t[3] = catalog.Null, catalog.Null
		_ = w.s.tbl.Update(rid, t)
	}
}

// Abort discards pending versions; readers were never exposed to them.
func (w *twoVWriter) Abort() error {
	defer w.finish()
	w.rollbackPending()
	w.tx.Abort()
	return nil
}
