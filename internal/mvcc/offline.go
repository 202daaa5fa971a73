package mvcc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/storage"
)

// Offline is the current-practice discipline of §1.1 (Figure 1): the
// warehouse is simply closed to readers while the maintenance transaction
// runs ("maintain at night"). No locks, no versions — and no availability:
// BeginReader fails with ErrReaderBlocked during maintenance, and the
// availability experiment charges the whole maintenance window as
// downtime.
type Offline struct {
	d   *db.Database
	tbl *db.Table

	mu          sync.Mutex
	maintaining bool
	readers     int
}

// NewOffline builds the scheme with its own engine instance.
func NewOffline(cfg Config) (*Offline, error) {
	d := cfg.engine()
	tbl, err := d.CreateTable(kvSchema())
	if err != nil {
		return nil, err
	}
	s := &Offline{d: d, tbl: tbl}
	instrument(d, nil, s.Name())
	return s, nil
}

// Name implements Scheme.
func (s *Offline) Name() string { return "Offline" }

// Load implements Scheme.
func (s *Offline) Load(rows []KV) error {
	for _, r := range rows {
		if _, err := s.tbl.Insert(catalog.Tuple{catalog.NewInt(r.K), catalog.NewInt(r.V)}); err != nil {
			return err
		}
	}
	return nil
}

// Stats implements Scheme.
func (s *Offline) Stats() Stats {
	return Stats{
		IO:           s.d.Pool().Stats(),
		StorageBytes: s.tbl.Heap().Bytes(),
		LiveBytes:    s.tbl.Len() * s.tbl.Heap().RowBytes(),
	}
}

// GC implements Scheme.
func (s *Offline) GC() int { return 0 }

type offlineReader struct{ s *Offline }

// BeginReader implements Scheme; it fails while maintenance runs.
func (s *Offline) BeginReader() (Reader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maintaining {
		return nil, ErrReaderBlocked
	}
	s.readers++
	return &offlineReader{s: s}, nil
}

func (r *offlineReader) Get(k int64) (int64, bool, error) {
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

func (r *offlineReader) ScanSum() (int64, int, error) {
	var sum int64
	count := 0
	r.s.tbl.Scan(func(_ storage.RID, t catalog.Tuple) bool {
		sum += t[1].Int()
		count++
		return true
	})
	return sum, count, nil
}

func (r *offlineReader) Close() error {
	r.s.mu.Lock()
	r.s.readers--
	r.s.mu.Unlock()
	return nil
}

type offlineWriter struct{ s *Offline }

// BeginWriter implements Scheme; it fails while any reader session is open
// (the "wait for the day to end" rule) and closes the warehouse to readers
// until Commit.
func (s *Offline) BeginWriter() (Writer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maintaining {
		return nil, errors.New("mvcc: offline maintenance already active")
	}
	if s.readers > 0 {
		return nil, fmt.Errorf("mvcc: offline maintenance must wait for %d open reader sessions", s.readers)
	}
	s.maintaining = true
	return &offlineWriter{s: s}, nil
}

func (w *offlineWriter) Insert(k, v int64) error {
	_, err := w.s.tbl.Insert(catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)})
	return err
}

func (w *offlineWriter) Update(k, v int64) error {
	rid, ok := w.s.tbl.SearchKey(kvKey(k))
	if !ok {
		return fmt.Errorf("mvcc: update of missing key %d", k)
	}
	return w.s.tbl.Update(rid, catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)})
}

func (w *offlineWriter) Delete(k int64) error {
	rid, ok := w.s.tbl.SearchKey(kvKey(k))
	if !ok {
		return fmt.Errorf("mvcc: delete of missing key %d", k)
	}
	return w.s.tbl.Delete(rid)
}

func (w *offlineWriter) Commit() error {
	w.s.mu.Lock()
	w.s.maintaining = false
	w.s.mu.Unlock()
	return nil
}

// Abort reopens the warehouse; the experiments only abort clean writers.
func (w *offlineWriter) Abort() error { return w.Commit() }
