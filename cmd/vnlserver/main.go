// Command vnlserver fronts the 2VNL/nVNL store with a TCP server speaking
// the length-prefixed protocol of PROTOCOL.md, plus an HTTP observability
// sidecar (/metrics, /healthz, /readyz). Reader sessions opened over the
// wire run on the store's lock-free snapshot path, so on-line maintenance
// never blocks them; maintenance delta batches arrive over the same wire
// and each one runs as one maintenance transaction (core's ApplyBatch).
//
//	vnlserver -addr :7432 -http :7433 -kv
//	vnlserver -n 3 -wal server.wal
//	vnlserver -init schema.sql -drain-timeout 30s
//
// With -wal the server is also a replication primary: followers poll the
// journal over the same wire protocol. A follower runs with -primary:
//
//	vnlserver -addr :7432 -wal primary.wal -kv            # primary
//	vnlserver -addr :7542 -primary 127.0.0.1:7432 \
//	          -replica-wal replica.wal                    # read-only replica
//
// The replica persists the shipped WAL bytes to -replica-wal, replays
// committed transactions, and serves read-only sessions; /readyz reports
// ready only while it is caught up (within -max-lag-vns of the primary).
//
// With -shards N (N > 1) the server fronts N independent stores behind one
// atomic cross-shard epoch: batches partition by (table, primary key) hash
// and publish with a two-phase epoch flip, and every wire session pins one
// coherent cross-shard version. -wal then names a directory holding the
// per-shard WALs and the epoch log:
//
//	vnlserver -addr :7432 -shards 4 -wal data/ -kv
//
// On SIGTERM or SIGINT the server drains gracefully: the listener closes,
// /readyz flips to 503, in-flight queries complete, and open sessions get
// until -drain-timeout to finish; a clean drain exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/warehouse"
	"repro/internal/workload"
	"repro/pkg/vnlclient"
)

// flags carries every command-line option; one struct instead of a
// fifteen-argument run signature.
type flags struct {
	addr, httpAddr                  string
	n, shards                       int
	walPath                         string
	gcEvery                         time.Duration
	maxConns                        int
	idleTO, reqTO, writeTO, drainTO time.Duration
	kv, demo                        bool
	initSQL                         string
	primary, replicaWAL             string
	maxLag                          uint64
}

func main() {
	var f flags
	flag.StringVar(&f.addr, "addr", "127.0.0.1:7432", "TCP listen address for the binary protocol")
	flag.StringVar(&f.httpAddr, "http", "", "HTTP sidecar listen address for /metrics, /healthz, /readyz (empty = off)")
	flag.IntVar(&f.n, "n", 2, "versions (2 = 2VNL); a replica must match its primary")
	flag.IntVar(&f.shards, "shards", 1, "hash-shard across N independent stores behind one atomic cross-shard epoch (1 = single store)")
	flag.StringVar(&f.walPath, "wal", "", "journal maintenance to this write-ahead log (also enables the replication feed); with -shards > 1, a directory for the per-shard WALs and the epoch log")
	flag.DurationVar(&f.gcEvery, "gc-interval", 0, "run a garbage-collection pass this often (0 = never)")
	flag.IntVar(&f.maxConns, "max-conns", 256, "connection limit; excess dials are answered too_busy")
	flag.DurationVar(&f.idleTO, "idle-timeout", 5*time.Minute, "close connections idle this long (0 = never)")
	flag.DurationVar(&f.reqTO, "request-timeout", 30*time.Second, "sever connections whose in-flight request exceeds this (0 = never)")
	flag.DurationVar(&f.writeTO, "write-timeout", 30*time.Second, "deadline on each response frame write (0 = never)")
	flag.DurationVar(&f.drainTO, "drain-timeout", 10*time.Second, "graceful-drain deadline on SIGTERM")
	flag.BoolVar(&f.kv, "kv", false, "create the kv benchmark table (what vnlload -dsn drives)")
	flag.BoolVar(&f.demo, "demo", false, "preload the sporting-goods warehouse demo (3 summary views, 2 days of feed)")
	flag.StringVar(&f.initSQL, "init", "", "file of semicolon-separated CREATE TABLE statements run at startup")
	flag.StringVar(&f.primary, "primary", "", "run as a read-only replica tailing the primary vnlserver at this address")
	flag.StringVar(&f.replicaWAL, "replica-wal", "", "replica mode: path for the local WAL copy (required with -primary)")
	flag.Uint64Var(&f.maxLag, "max-lag-vns", 0, "replica mode: /readyz reports ready while VN lag is within this bound (0 = full parity)")
	flag.Parse()

	if f.shards > 1 {
		// The demo loads through the warehouse layer (single store only),
		// and the replication feed serves one WAL file — neither exists in
		// sharded mode.
		if f.demo || f.primary != "" {
			fmt.Fprintln(os.Stderr, "vnlserver: -shards excludes -demo and -primary")
			os.Exit(2)
		}
		if err := runShards(f); err != nil {
			fmt.Fprintln(os.Stderr, "vnlserver:", err)
			os.Exit(1)
		}
		return
	}
	if f.primary == "" && f.replicaWAL != "" {
		fmt.Fprintln(os.Stderr, "vnlserver: -replica-wal needs -primary")
		os.Exit(2)
	}
	if f.primary != "" {
		if f.replicaWAL == "" {
			fmt.Fprintln(os.Stderr, "vnlserver: -primary needs -replica-wal")
			os.Exit(2)
		}
		// A replica's state is the primary's history; locally seeded tables
		// or a local journal would fork it before the first segment lands.
		if f.kv || f.demo || f.initSQL != "" || f.walPath != "" {
			fmt.Fprintln(os.Stderr, "vnlserver: -primary excludes -kv, -demo, -init, and -wal (replica state ships from the primary)")
			os.Exit(2)
		}
		if err := runReplica(f); err != nil {
			fmt.Fprintln(os.Stderr, "vnlserver:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, "vnlserver:", err)
		os.Exit(1)
	}
}

func run(f flags) error {
	d := db.Open(db.Options{})
	store, err := core.Open(d, core.Options{N: f.n})
	if err != nil {
		return err
	}
	var journal *wal.Log
	var feed *repl.Feed
	if f.walPath != "" {
		journal, err = wal.Create(f.walPath, wal.PolicyRedoOnly)
		if err != nil {
			return err
		}
		store.SetJournal(journal)
		// The journal doubles as the replication feed. The epoch is the
		// start time: wal.Create truncates, so every server start is a new
		// incarnation of the log and followers of the old one must rebuild.
		feed = repl.NewFeed(vfs.Disk(), f.walPath, journal, uint64(time.Now().UnixNano()))
		log.Printf("vnlserver: replication feed on %s (epoch %d)", f.walPath, feed.Epoch())
		// Followers advertise their slowest pinned VN in every poll; the
		// clamp keeps GC from reclaiming a pre-image a lagging replica
		// session still reads.
		store.SetGCFloorClamp(func() (core.VN, bool) {
			vn, ok := feed.SlowestPinned()
			return core.VN(vn), ok
		})
	}
	if f.kv {
		if _, err := store.CreateTableSQL(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`); err != nil {
			return err
		}
		log.Printf("vnlserver: created kv table")
	}
	if f.demo {
		if err := loadDemo(store); err != nil {
			return err
		}
	}
	if f.initSQL != "" {
		if err := runInitSQL(func(stmt string) error {
			_, err := store.CreateTableSQL(stmt)
			return err
		}, f.initSQL); err != nil {
			return err
		}
	}

	cfg := serverConfig(f)
	cfg.Store = store
	if feed != nil {
		cfg.ReplFeed = feed
	}
	stopGC := startGC(f.gcEvery, func() {
		if stats := store.GC(); stats.Err != nil {
			log.Printf("vnlserver: gc journal error: %v", stats.Err)
		}
	})
	drainErr := serveUntilSignal(server.New(cfg), f)
	stopGC()
	if feed != nil {
		_ = feed.Close()
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return fmt.Errorf("closing wal: %w", err)
		}
	}
	return drainErr
}

// runShards opens the hash-sharded router and fronts it with the same wire
// server: sessions pin the atomic cross-shard epoch, batches publish with
// the two-phase flip, and the shard_* metrics land on the default registry
// the HTTP sidecar serves. With -wal the shards are durable — per-shard
// WALs plus the epoch log under the directory — and reopen at one
// all-or-nothing epoch after a crash.
func runShards(f flags) error {
	opts := shard.Options{Shards: f.shards, N: f.n}
	if f.walPath != "" {
		if err := os.MkdirAll(f.walPath, 0o755); err != nil {
			return err
		}
		opts.FS = vfs.Disk()
		opts.Dir = f.walPath
	}
	router, err := shard.Open(opts)
	if err != nil {
		return err
	}
	log.Printf("vnlserver: %d shards open at epoch %d", router.Shards(), router.EpochVN())
	// A durable shard set resumes with its tables recovered; only create
	// what recovery did not bring back.
	if f.kv && !router.HasTable("kv") {
		if err := router.CreateTableSQL(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`); err != nil {
			return err
		}
		log.Printf("vnlserver: created kv table")
	}
	if f.initSQL != "" {
		if err := runInitSQL(router.CreateTableSQL, f.initSQL); err != nil {
			return err
		}
	}

	cfg := serverConfig(f)
	cfg.Backend = server.NewShardBackend(router)
	stopGC := startGC(f.gcEvery, func() {
		for _, stats := range router.GC() {
			if stats.Err != nil {
				log.Printf("vnlserver: gc journal error: %v", stats.Err)
			}
		}
	})
	drainErr := serveUntilSignal(server.New(cfg), f)
	stopGC()
	if err := router.Close(); err != nil {
		return fmt.Errorf("closing shards: %w", err)
	}
	return drainErr
}

// startGC runs fn every interval on a background ticker; the returned stop
// joins the loop. A zero interval disables it.
func startGC(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// runReplica opens (or resumes) the local WAL copy, tails the primary over
// the wire, and serves the replayed store read-only. The tail loop keeps
// reconnecting across primary restarts and link drops; only divergence
// (a new primary epoch) is fatal, and then the copy must be rebuilt.
func runReplica(f flags) error {
	rep, err := repl.Open(repl.Options{
		Path:      f.replicaWAL,
		DB:        db.Options{},
		Store:     core.Options{N: f.n},
		MaxLagVNs: f.maxLag,
		Logf:      log.Printf,
	})
	if err != nil {
		return err
	}
	c, err := vnlclient.Dial(f.primary, vnlclient.Options{})
	if err != nil {
		_ = rep.Close()
		return fmt.Errorf("dialing primary %s: %w", f.primary, err)
	}
	src := repl.NewWireSource(c)
	log.Printf("vnlserver: replica of %s, resuming at LSN %d (replayed VN %d)",
		f.primary, rep.NextLSN(), rep.ReplayedVN())
	rep.Start(src)

	cfg := serverConfig(f)
	cfg.Store = rep.Store()
	cfg.Replica = rep
	drainErr := serveUntilSignal(server.New(cfg), f)
	rep.Stop(src)
	if err := rep.Close(); err != nil {
		return fmt.Errorf("closing local WAL copy: %w", err)
	}
	if err := rep.Err(); err != nil {
		return fmt.Errorf("replication stream: %w", err)
	}
	return drainErr
}

// serverConfig builds the wire-server config shared by both modes; the
// caller fills in Store and the replication role.
func serverConfig(f flags) server.Config {
	return server.Config{
		Addr:           f.addr,
		MaxConns:       f.maxConns,
		IdleTimeout:    f.idleTO,
		RequestTimeout: f.reqTO,
		WriteTimeout:   f.writeTO,
		DrainTimeout:   f.drainTO,
		Logf:           log.Printf,
	}
}

// serveUntilSignal starts the wire server and the optional HTTP sidecar,
// blocks until SIGTERM or SIGINT, and drains gracefully.
func serveUntilSignal(srv *server.Server, f flags) error {
	if err := srv.Start(); err != nil {
		return err
	}
	var hs *http.Server
	if f.httpAddr != "" {
		hs = &http.Server{Addr: f.httpAddr, Handler: srv.HTTPHandler()}
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("vnlserver: http sidecar: %v", err)
			}
		}()
		log.Printf("vnlserver: http sidecar on %s (/metrics /healthz /readyz)", f.httpAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	log.Printf("vnlserver: %v received; draining (deadline %v)", got, f.drainTO)

	ctx, cancel := context.WithTimeout(context.Background(), f.drainTO)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	if hs != nil {
		hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
		defer hcancel()
		_ = hs.Shutdown(hctx)
	}
	if drainErr != nil {
		return drainErr
	}
	log.Printf("vnlserver: drained cleanly")
	return nil
}

// loadDemo materializes the sporting-goods summary views and streams two
// days of feed, so a fresh server answers the README's example queries.
func loadDemo(store *core.Store) error {
	wh := warehouse.New(store)
	views := []warehouse.ViewDef{
		{Name: "DailySales", GroupBy: []string{"city", "state", "product_line", "date"},
			Aggregates: []warehouse.Aggregate{{Func: "sum", Source: "amount", As: "total_sales"}}},
		{Name: "StateSales", GroupBy: []string{"state"},
			Aggregates: []warehouse.Aggregate{
				{Func: "sum", Source: "amount", As: "total_sales"},
				{Func: "count", As: "num_sales"}}},
		{Name: "LineSales", GroupBy: []string{"product_line"},
			Aggregates: []warehouse.Aggregate{{Func: "sum", Source: "quantity", As: "qty"}}},
	}
	for _, def := range views {
		if _, err := wh.Materialize(def); err != nil {
			return err
		}
	}
	gen := workload.New(1)
	for day := 0; day < 2; day++ {
		if err := wh.RefreshBatch(gen.Batch(500, 5)); err != nil {
			return err
		}
		gen.NextDay()
	}
	log.Printf("vnlserver: demo warehouse loaded (%d views, 2 days of feed, VN %d)",
		len(views), store.CurrentVN())
	return nil
}

// runInitSQL executes semicolon-separated CREATE TABLE statements from a
// file through create (the store's or the shard router's CreateTableSQL).
func runInitSQL(create func(string) error, path string) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, stmt := range strings.Split(string(text), ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		if err := create(stmt); err != nil {
			return fmt.Errorf("init %s: %w", path, err)
		}
	}
	log.Printf("vnlserver: ran init statements from %s", path)
	return nil
}
