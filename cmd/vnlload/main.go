// Command vnlload builds a complete synthetic warehouse: it materializes
// summary views over the sporting-goods feed, streams daily maintenance
// batches through 2VNL transactions while a background analyst session
// keeps querying, and finishes with an integrity audit (every view
// recomputed from the fact history) plus operational statistics.
//
//	vnlload -days 5 -facts 2000 -retract 5 -n 2 -seed 1
//	vnlload -wal warehouse.wal                  # journal every commit
//	vnlload -dsn 127.0.0.1:7432 -days 20        # drive a remote vnlserver
//
// With -dsn the load runs over the wire against a vnlserver started with
// -kv: delta batches stream through the protocol's ApplyBatch while a
// concurrent reader session checks version stability, and a client-side
// oracle audits the final state. -report prints interval throughput while
// the load runs (both modes), instead of only the exit summary.
//
// With -dsn and -readonly the run issues no writes: it drives a burst of
// session reads (version stability checked across the burst), prints the
// endpoint's freshness bound, and — against a replica — requires writes to
// be refused. -verify-dsn compares the final COUNT/SUM against a second
// server, retrying briefly so a tailing replica can converge:
//
//	vnlload -dsn 127.0.0.1:7542 -readonly -verify-dsn 127.0.0.1:7432
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

func main() {
	var (
		days    = flag.Int("days", 5, "days of feed to load (one maintenance transaction per day)")
		facts   = flag.Int("facts", 2000, "sales facts per day")
		retract = flag.Int("retract", 5, "percent of facts retracted as corrections")
		n       = flag.Int("n", 2, "versions (2 = 2VNL)")
		seed    = flag.Int64("seed", 1, "workload seed")
		gc      = flag.Bool("gc", true, "garbage-collect after loading")
		walPath = flag.String("wal", "", "journal maintenance to this write-ahead log")
		metrics = flag.Bool("metrics", false, "print the full metrics snapshot at the end")
		dsn     = flag.String("dsn", "", "drive a remote vnlserver at this address instead of an embedded store")
		report  = flag.Duration("report", 0, "print interval throughput this often while loading (0 = only the exit summary)")
		pace    = flag.Duration("pace", 0, "with -dsn: sleep this long between day batches (throttles the burst)")
		rdonly  = flag.Bool("readonly", false, "with -dsn: session-read burst only, no writes (for replica endpoints)")
		reads   = flag.Int("reads", 200, "with -readonly: number of session reads in the burst")
		verify  = flag.String("verify-dsn", "", "with -readonly: compare the final COUNT/SUM against this server")
	)
	flag.Parse()
	if *rdonly {
		if *dsn == "" {
			fmt.Fprintln(os.Stderr, "vnlload: -readonly needs -dsn")
			os.Exit(2)
		}
		if err := runReadOnly(*dsn, *verify, *reads); err != nil {
			fmt.Fprintln(os.Stderr, "vnlload:", err)
			os.Exit(1)
		}
		return
	}
	if *dsn != "" {
		if err := runDSN(*dsn, *days, *facts, *seed, *report, *pace); err != nil {
			fmt.Fprintln(os.Stderr, "vnlload:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*days, *facts, *retract, *n, *seed, *gc, *walPath, *metrics, *report); err != nil {
		fmt.Fprintln(os.Stderr, "vnlload:", err)
		os.Exit(1)
	}
}

func run(days, facts, retract, n int, seed int64, gc bool, walPath string, metrics bool, report time.Duration) error {
	d := db.Open(db.Options{})
	store, err := core.Open(d, core.Options{N: n})
	if err != nil {
		return err
	}
	var journal *wal.Log
	if walPath != "" {
		journal, err = wal.Create(walPath, wal.PolicyRedoOnly)
		if err != nil {
			return err
		}
		store.SetJournal(journal)
	}
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
	fmt.Printf("materialized %d summary views (n=%d versions)\n", len(views), n)

	// Throughput is reported from the store's own instrumentation rather
	// than hand-rolled counters: the snapshot delta across the load is the
	// work done.
	reg := store.Metrics()
	before := reg.Snapshot()
	loadStart := time.Now()
	if report > 0 {
		stopReport := startReporter(reg, report)
		defer stopReport()
	}

	gen := workload.New(seed)
	// A long-running analyst session opened before loading: it must keep a
	// stable (empty) view until it expires, demonstrating on-line
	// maintenance.
	analyst := store.BeginSession()
	for day := 0; day < days; day++ {
		batch := gen.Batch(facts, retract)
		if err := wh.RefreshBatch(batch); err != nil {
			return err
		}
		sess := store.BeginSession()
		rows, err := sess.Query(`SELECT SUM(total_sales), COUNT(*) FROM DailySales`, nil)
		if err != nil {
			return err
		}
		status := "live"
		if analyst.Expired() {
			status = "expired"
		}
		fmt.Printf("day %d: batch of %d facts -> VN %d; warehouse total %s over %s groups; day-0 analyst session %s\n",
			day+1, batch.Size(), store.CurrentVN(), rows.Tuples[0][0], rows.Tuples[0][1], status)
		sess.Close()
		gen.NextDay()
	}
	elapsed := time.Since(loadStart)
	analyst.Close()

	delta := reg.Snapshot().Sub(before)
	logical := delta.Counters["core_maint_logical_inserts_total"] +
		delta.Counters["core_maint_logical_updates_total"] +
		delta.Counters["core_maint_logical_deletes_total"]
	physical := delta.Counters["core_maint_physical_inserts_total"] +
		delta.Counters["core_maint_physical_updates_total"] +
		delta.Counters["core_maint_physical_deletes_total"]
	secs := elapsed.Seconds()
	if secs > 0 {
		fmt.Printf("throughput: %.0f logical ops/s (%d logical -> %d physical over %v, %d commits)\n",
			float64(logical)/secs, logical, physical, elapsed.Round(time.Millisecond),
			delta.Counters["core_maint_commits_total"])
	}

	if diff := wh.CheckViews(gen.Sold()); diff != "" {
		return fmt.Errorf("view audit failed: %s", diff)
	}
	fmt.Println("view audit: all views exactly match a recomputation from the fact history")

	if gc {
		st := store.GC()
		fmt.Printf("gc: scanned %d tuples, reclaimed %d (%d bytes)\n", st.Scanned, st.Removed, st.BytesReclaimed)
	}
	if journal != nil {
		st := journal.Stats()
		fmt.Printf("wal: %d records, %d bytes, %d syncs -> %s (recover with vnlsh -wal)\n",
			st.Records, st.Bytes, st.Syncs, walPath)
		if err := journal.Close(); err != nil {
			return err
		}
	}
	sess := store.BeginSession()
	defer sess.Close()
	rows, err := sess.Query(`SELECT state, total_sales, num_sales FROM StateSales ORDER BY total_sales DESC LIMIT 5`, nil)
	if err != nil {
		return err
	}
	fmt.Println("\ntop states by sales:")
	fmt.Println(rows)
	if metrics {
		fmt.Println("== metrics snapshot ==")
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// startReporter prints interval throughput from the store's logical-op
// counters every report period until the returned stop function is called.
// Earlier versions only printed the exit summary, which made a stalled or
// slow load indistinguishable from a fast one until it finished.
func startReporter(reg *obs.Registry, report time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(report)
		defer tick.Stop()
		start := time.Now()
		logical := func(s obs.Snapshot) int64 {
			return s.Counters["core_maint_logical_inserts_total"] +
				s.Counters["core_maint_logical_updates_total"] +
				s.Counters["core_maint_logical_deletes_total"]
		}
		last := logical(reg.Snapshot())
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				now := logical(reg.Snapshot())
				fmt.Printf("t+%s: %.0f logical ops/s over last %v (%d total)\n",
					time.Since(start).Round(time.Second),
					float64(now-last)/report.Seconds(), report, now)
				last = now
			}
		}
	}()
	return func() { close(done); <-finished }
}
