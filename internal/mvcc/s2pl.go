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

// kvSchema is the benchmark relation: k (key), v (updatable).
func kvSchema() *catalog.Schema {
	return catalog.MustSchema("acct", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
}

func kvKey(k int64) catalog.Tuple { return catalog.Tuple{catalog.NewInt(k)} }

// S2PL is conventional strict two-phase locking at table granularity:
// readers share the relation, the maintenance transaction excludes them
// entirely. This is the "conventional locking" the paper's introduction
// rules out — both sides block, and since warehouse readers and maintenance
// both touch large portions of the relation, coarse granularity captures
// the effective behaviour (finer locks only delay the inevitable conflict).
type S2PL struct {
	d   *db.Database
	tbl *db.Table
	mgr *txn.Manager

	mu     sync.Mutex
	writer bool
}

// NewS2PL builds the scheme with its own engine instance.
func NewS2PL(cfg Config) (*S2PL, error) {
	d := cfg.engine()
	tbl, err := d.CreateTable(kvSchema())
	if err != nil {
		return nil, err
	}
	s := &S2PL{d: d, tbl: tbl, mgr: txn.NewManager()}
	instrument(d, s.mgr, s.Name())
	return s, nil
}

// Name implements Scheme.
func (s *S2PL) Name() string { return "S2PL" }

// Load implements Scheme.
func (s *S2PL) Load(rows []KV) error {
	for _, r := range rows {
		if _, err := s.tbl.Insert(catalog.Tuple{catalog.NewInt(r.K), catalog.NewInt(r.V)}); err != nil {
			return err
		}
	}
	return nil
}

// Stats implements Scheme.
func (s *S2PL) Stats() Stats {
	return Stats{
		IO:           s.d.Pool().Stats(),
		Locks:        s.mgr.Stats(),
		StorageBytes: s.tbl.Heap().Bytes(),
		LiveBytes:    s.tbl.Len() * s.tbl.Heap().RowBytes(),
	}
}

// GC implements Scheme (no version storage).
func (s *S2PL) GC() int { return 0 }

type s2plReader struct {
	s  *S2PL
	tx *txn.Txn
}

// BeginReader implements Scheme. The read lock is taken lazily on first
// access and held until Close (strict 2PL).
func (s *S2PL) BeginReader() (Reader, error) {
	return &s2plReader{s: s, tx: s.mgr.Begin(txn.Serializable)}, nil
}

func (r *s2plReader) lock() error {
	_, err := r.tx.AcquireRead(txn.TableResource("acct"))
	if errors.Is(err, txn.ErrDeadlock) {
		r.tx.Abort()
		return fmt.Errorf("%w: %v", ErrAborted, err)
	}
	return err
}

func (r *s2plReader) Get(k int64) (int64, bool, error) {
	if err := r.lock(); err != nil {
		return 0, false, err
	}
	rid, ok := r.s.tbl.SearchKey(kvKey(k))
	if !ok {
		return 0, false, nil
	}
	t, err := r.s.tbl.Get(rid)
	if err != nil {
		return 0, false, nil
	}
	return t[1].Int(), true, nil
}

func (r *s2plReader) ScanSum() (int64, int, error) {
	if err := r.lock(); err != nil {
		return 0, 0, err
	}
	var sum int64
	count := 0
	r.s.tbl.Scan(func(_ storage.RID, t catalog.Tuple) bool {
		sum += t[1].Int()
		count++
		return true
	})
	return sum, count, nil
}

func (r *s2plReader) Close() error { return r.tx.Commit() }

type s2plWriter struct {
	s      *S2PL
	tx     *txn.Txn
	locked bool
}

// BeginWriter implements Scheme.
func (s *S2PL) BeginWriter() (Writer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer {
		return nil, errors.New("mvcc: S2PL writer already active")
	}
	s.writer = true
	return &s2plWriter{s: s, tx: s.mgr.Begin(txn.Serializable)}, nil
}

func (w *s2plWriter) lock() error {
	if w.locked {
		return nil
	}
	// The X lock blocks until every reader commits — and blocks every new
	// reader until the maintenance transaction commits.
	if err := w.tx.AcquireWrite(txn.TableResource("acct")); err != nil {
		if errors.Is(err, txn.ErrDeadlock) {
			w.tx.Abort()
			return fmt.Errorf("%w: %v", ErrAborted, err)
		}
		return err
	}
	w.locked = true
	return nil
}

func (w *s2plWriter) Insert(k, v int64) error {
	if err := w.lock(); err != nil {
		return err
	}
	_, err := w.s.tbl.Insert(catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)})
	return err
}

func (w *s2plWriter) Update(k, v int64) error {
	if err := w.lock(); err != nil {
		return err
	}
	rid, ok := w.s.tbl.SearchKey(kvKey(k))
	if !ok {
		return fmt.Errorf("mvcc: update of missing key %d", k)
	}
	return w.s.tbl.Update(rid, catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)})
}

func (w *s2plWriter) Delete(k int64) error {
	if err := w.lock(); err != nil {
		return err
	}
	rid, ok := w.s.tbl.SearchKey(kvKey(k))
	if !ok {
		return fmt.Errorf("mvcc: delete of missing key %d", k)
	}
	return w.s.tbl.Delete(rid)
}

func (w *s2plWriter) finish() {
	w.s.mu.Lock()
	w.s.writer = false
	w.s.mu.Unlock()
}

func (w *s2plWriter) Commit() error {
	defer w.finish()
	return w.tx.Commit()
}

func (w *s2plWriter) Abort() error {
	// Note: S2PL would normally undo from a log; the experiments only
	// abort writers that have made no changes, so Abort here just releases
	// locks.
	defer w.finish()
	w.tx.Abort()
	return nil
}
