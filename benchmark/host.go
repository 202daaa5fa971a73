package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// versions is n of nVNL for every workload. vnlserver's default of 2 cannot
// run the online workload at all: under back-to-back maintenance a 2VNL
// session is valid only until the next transaction begins, which is sooner
// than one aggregate query takes. Four versions let a session outlive two
// to three batches, so most sessions still end by expiring — the price §5
// describes, and what core.session_expired_ratio reports.
const versions = 4

const shardCount = 2

// host is the system under test, wired as cmd/vnlserver wires it: the
// engine behind server.Backend, server.New on loopback TCP, and for the
// durable topologies a WAL (or per-shard WALs and an epoch log) on a real
// directory with the default policy of one fsync per commit.
type host struct {
	w      *workload
	dir    string // "" for the volatile topologies
	tr     *tracer
	fs     *countingFS
	store  *core.Store // single-store topologies
	log    *wal.Log
	router *shard.Router
	srv    *server.Server
	// routerReg holds the shard_* metrics; each store has its own registry.
	routerReg *obs.Registry
}

func openHost(w *workload, dir string, tr *tracer) (*host, error) {
	h := &host{w: w, tr: tr, fs: &countingFS{FS: vfs.Disk(), tr: tr}, routerReg: obs.NewRegistry()}
	if err := h.open(dir); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *host) open(dir string) (err error) {
	w, tr := h.w, h.tr
	if w.durable {
		h.dir = dir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var backend server.Backend
	if w.sharded {
		opts := shard.Options{Shards: shardCount, N: versions, Metrics: h.routerReg}
		if w.durable {
			opts.FS, opts.Dir = h.fs, dir
		}
		if h.router, err = shard.Open(opts); err != nil {
			return err
		}
		h.router.SetHooks(shardHooks(tr))
		if err := h.router.CreateTableSQL(createSQL); err != nil {
			return err
		}
		backend = server.NewShardBackend(h.router)
	} else {
		if h.store, err = core.Open(db.Open(db.Options{}), core.Options{N: versions, Metrics: obs.NewRegistry()}); err != nil {
			return err
		}
		if w.durable {
			if h.log, err = wal.CreateFS(h.fs, h.walPath(), wal.PolicyRedoOnly); err != nil {
				return err
			}
			h.store.SetJournal(&tracedJournal{Journal: h.log, tr: tr})
		}
		if _, err := h.store.CreateTableSQL(createSQL); err != nil {
			return err
		}
		backend = server.NewCoreBackend(h.store)
	}
	// vnlserver's defaults, but for RequestTimeout: its watchdog goroutine
	// takes no part in serving a request, and it reads Server.watchStop
	// unlocked while Close replaces it, which fails this package's tests
	// under -race. The fix belongs to internal/server.
	h.srv = server.New(server.Config{
		Addr:         "127.0.0.1:0",
		Backend:      tracedBackend{Backend: backend, tr: tr},
		MaxConns:     256,
		IdleTimeout:  5 * time.Minute,
		WriteTimeout: 30 * time.Second,
		Metrics:      obs.NewRegistry(),
	})
	if err := h.srv.Start(); err != nil {
		return err
	}
	return nil
}

func (h *host) walPath() string { return filepath.Join(h.dir, "store.wal") }

func (h *host) addr() string { return h.srv.Addr().String() }

// stores lists the core stores behind the backend (the shards, or the one).
func (h *host) stores() []*core.Store {
	if h.router == nil {
		return []*core.Store{h.store}
	}
	out := make([]*core.Store, h.router.Shards())
	for i := range out {
		out[i] = h.router.Shard(i)
	}
	return out
}

// gc runs one garbage-collection pass, as vnlserver's -gc-interval ticker
// would, and reports what it removed.
func (h *host) gc() (removed int, err error) {
	var passes []core.GCStats
	if h.router != nil {
		passes = h.router.GC()
	} else {
		passes = []core.GCStats{h.store.GC()}
	}
	for _, p := range passes {
		removed += p.Removed
		err = errors.Join(err, p.Err)
	}
	return removed, err
}

// obsCounters sums the stores' and the router's counters and histogram
// sums under their registry names.
func (h *host) obsCounters() map[string]int64 {
	out := make(map[string]int64)
	regs := []*obs.Registry{h.routerReg}
	for _, st := range h.stores() {
		regs = append(regs, st.Metrics())
	}
	for _, reg := range regs {
		snap := reg.Snapshot()
		for n, v := range snap.Counters {
			out[n] += v
		}
		for n, hs := range snap.Histograms {
			out[n+".sum"] += hs.Sum
			out[n+".count"] += hs.Count
		}
	}
	return out
}

// storageBytes is the versioned heap against the live base tuples it holds:
// the §6 storage-overhead figure.
func (h *host) storageBytes() (heap, live int64, pages int, err error) {
	for _, st := range h.stores() {
		vt, err := st.Table(factTable)
		if err != nil {
			return 0, 0, 0, err
		}
		heap += int64(vt.Storage().Heap().Bytes())
		pages += vt.Storage().Heap().NumPages()
		live += int64(vt.Len()) * int64(vt.Base().RowBytes())
	}
	return heap, live, pages, nil
}

// close stops the server and closes the logs; the directory stays for the
// recovery check.
func (h *host) close() error {
	var err error
	if h.srv != nil {
		err = h.srv.Close()
		h.srv = nil
	}
	if h.router != nil {
		err = errors.Join(err, h.router.Close())
		h.router = nil
	}
	if h.log != nil {
		err = errors.Join(err, h.log.Close())
		h.log = nil
	}
	return err
}

// recoveredState reopens the directory as a restarted process would and
// folds what the recovered engine holds at its current version. This is
// process-restart durability: the operating system's cache survives, so it
// does not show what a power cut would lose (cmd/vnlcrash tests that).
func recoveredState(w *workload, dir string) (vn uint64, got groupDigests, err error) {
	fold := func(t catalog.Tuple) bool {
		got[t[1].Int()].fold(t[0].Int(), t[2].Int(), t[3].Int(), +1)
		return true
	}
	if w.sharded {
		r, err := shard.Open(shard.Options{Shards: shardCount, N: versions, FS: vfs.Disk(), Dir: dir, Metrics: obs.NewRegistry()})
		if err != nil {
			return 0, got, fmt.Errorf("reopening shards: %w", err)
		}
		defer r.Close()
		sess, err := r.BeginSession()
		if err != nil {
			return 0, got, err
		}
		defer sess.Close()
		err = sess.Scan(factTable, fold)
		return uint64(sess.VN()), got, err
	}
	st, _, _, err := wal.RecoverFS(vfs.Disk(), filepath.Join(dir, "store.wal"), db.Options{}, core.Options{N: versions, Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, got, fmt.Errorf("recovering store: %w", err)
	}
	sess := st.BeginSession()
	defer sess.Close()
	err = sess.Scan(factTable, fold)
	return uint64(sess.VN()), got, err
}
