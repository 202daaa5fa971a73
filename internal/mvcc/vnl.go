package mvcc

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/storage"
)

// VNL adapts the paper's 2VNL/nVNL store to the common Scheme interface so
// the experiments can race it against the locking and version-pool
// baselines on identical workloads.
type VNL struct {
	d     *db.Database
	store *core.Store
	n     int
}

// NewVNL builds the scheme with n simultaneously available versions (2 for
// the paper's 2VNL).
func NewVNL(cfg Config, n int) (*VNL, error) {
	d := cfg.engine()
	s, err := core.Open(d, core.Options{N: n})
	if err != nil {
		return nil, err
	}
	if _, err := s.CreateTable(kvSchema()); err != nil {
		return nil, err
	}
	v := &VNL{d: d, store: s, n: n}
	// Re-point the pool counters from core.Open's generic "storage_pool"
	// prefix to this scheme's own series (no lock manager — that is the
	// point of 2VNL).
	instrument(d, nil, v.Name())
	return v, nil
}

// Name implements Scheme.
func (s *VNL) Name() string {
	if s.n == 2 {
		return "2VNL"
	}
	return fmt.Sprintf("%dVNL", s.n)
}

// Store exposes the underlying version store for experiment-specific
// probes.
func (s *VNL) Store() *core.Store { return s.store }

// Load implements Scheme: initial data is installed by a bulk maintenance
// transaction (the warehouse's initial load).
func (s *VNL) Load(rows []KV) error {
	m, err := s.store.BeginMaintenance()
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := m.Insert("acct", catalog.Tuple{catalog.NewInt(r.K), catalog.NewInt(r.V)}); err != nil {
			m.Rollback()
			return err
		}
	}
	return m.Commit()
}

// Stats implements Scheme. 2VNL takes no locks and does no version-pool
// I/O; its storage cost is the widened tuples themselves.
func (s *VNL) Stats() Stats {
	vt, err := s.store.Table("acct")
	if err != nil {
		return Stats{}
	}
	return Stats{
		IO:           s.d.Pool().Stats(),
		StorageBytes: vt.Storage().Heap().Bytes(),
		LiveBytes:    vt.Len() * vt.Storage().Heap().RowBytes(),
	}
}

// GC implements Scheme.
func (s *VNL) GC() int { return s.store.GC().Removed }

type vnlReader struct {
	s    *VNL
	sess *core.Session
}

// BeginReader implements Scheme.
func (s *VNL) BeginReader() (Reader, error) {
	return &vnlReader{s: s, sess: s.store.BeginSession()}, nil
}

func (r *vnlReader) Get(k int64) (int64, bool, error) {
	t, visible, err := r.sess.Get("acct", kvKey(k))
	if errors.Is(err, core.ErrSessionExpired) {
		return 0, false, ErrExpired
	}
	if err != nil || !visible {
		return 0, false, err
	}
	return t[1].Int(), true, nil
}

func (r *vnlReader) ScanSum() (int64, int, error) {
	var sum int64
	count := 0
	err := r.sess.Scan("acct", func(t catalog.Tuple) bool {
		sum += t[1].Int()
		count++
		return true
	})
	if errors.Is(err, core.ErrSessionExpired) {
		return 0, 0, ErrExpired
	}
	return sum, count, err
}

func (r *vnlReader) Close() error {
	r.sess.Close()
	return nil
}

type vnlWriter struct {
	s *VNL
	m *core.Maintenance
}

// BeginWriter implements Scheme.
func (s *VNL) BeginWriter() (Writer, error) {
	m, err := s.store.BeginMaintenance()
	if err != nil {
		return nil, err
	}
	return &vnlWriter{s: s, m: m}, nil
}

func (w *vnlWriter) Insert(k, v int64) error {
	return w.m.Insert("acct", catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)})
}

func (w *vnlWriter) Update(k, v int64) error {
	found, err := w.m.UpdateKey("acct", kvKey(k), func(c catalog.Tuple) catalog.Tuple {
		c[1] = catalog.NewInt(v)
		return c
	})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("mvcc: update of missing key %d", k)
	}
	return nil
}

func (w *vnlWriter) Delete(k int64) error {
	found, err := w.m.DeleteKey("acct", kvKey(k))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("mvcc: delete of missing key %d", k)
	}
	return nil
}

func (w *vnlWriter) Commit() error { return w.m.Commit() }

func (w *vnlWriter) Abort() error { return w.m.Rollback() }

// Interface conformance checks.
var (
	_ Scheme = (*S2PL)(nil)
	_ Scheme = (*TwoV2PL)(nil)
	_ Scheme = (*MV2PL)(nil)
	_ Scheme = (*Offline)(nil)
	_ Scheme = (*VNL)(nil)
	_        = storage.RID{}
)
