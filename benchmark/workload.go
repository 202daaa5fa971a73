package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/pkg/vnlclient"
)

type readKind int

const (
	readScan readKind = iota
	readPoint
	readAgg
)

// workload is one traffic mix on one topology. Every workload is a closed
// loop over at most two client connections: the users are a handful of
// analyst sessions and one maintenance process, and each waits for its
// reply before sending the next request.
type workload struct {
	name, why        string
	rows             int
	sharded, durable bool
	writer           bool // connection A streams maintenance batches; otherwise it reads
	sessionLen       int
	sql, paramName   string
	kind             readKind
}

var workloads = []*workload{
	{
		name: "scan", rows: smallRows, sessionLen: 16, sql: scanSQL, paramName: "g", kind: readScan,
		why: "full heap scan of a pool-resident table returning 256 of 16384 rows: exec and storage do the work, wire share is small",
	},
	{
		name: "point", rows: largeRows, sessionLen: 64, sql: pointSQL, paramName: "k", kind: readPoint,
		why: "zipfian key lookups on a table larger than the pool: the engine answers in microseconds, so client, framing and dispatch dominate; the control for scan",
	},
	{
		name: "online", rows: smallRows, durable: true, writer: true, sessionLen: 4, sql: aggSQL, kind: readAgg,
		why: "the paper's scenario: GROUP BY sessions beside back-to-back 2048-delta maintenance batches with a WAL fsync per commit",
	},
	{
		name: "sharded", rows: smallRows, sharded: true, durable: true, writer: true, sessionLen: 16, sql: scanSQL, paramName: "g", kind: readScan,
		why: "scan's reads and online's writes through a 2-shard router with an epoch log: what partition, two-phase publish and fan-out cost",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) readers() int {
	if w.writer {
		return 1
	}
	return 2
}

// endToEndDefs extends the metrics every workload reports with the
// write-side ones where a maintenance stream runs.
func (w *workload) endToEndDefs(all []metricDef) []metricDef {
	if !w.writer {
		return all
	}
	return append(append([]metricDef{}, all...), writeSide...)
}

// param draws the next query's parameter (unused by the aggregate).
func (w *workload) param(g *queryGen) catalog.Value {
	if w.kind == readPoint {
		return catalog.NewInt(g.key())
	}
	return catalog.NewInt(g.group())
}

// runConfig sizes one run.
type runConfig struct {
	seed                   int64
	warmup, window, traced time.Duration // traced == 0: no traced window
	setups                 int           // least number of set-ups timed; the last one is measured on
	checkSamples           bool          // the window is the full one: fail a series too short for the tail percentile
	outDir                 string
}

// tailPercentile is the tail every latency series reports by name. The
// online reader completes about 250 queries in a 20 s window, which by the
// ten-samples-beyond rule supports p95 with no margin and p90 with a wide
// one; a benchmark that fails when the machine is a fifth slower is no use,
// so the named tail is p90, and the report adds the highest percentile each
// series does support.
const tailPercentile = 90

// minSamples is what tailPercentile needs; a shorter series fails the run.
const minSamples = minBeyond * 100 / (100 - tailPercentile)

// env is the live state of one run.
type env struct {
	w   *workload
	cfg runConfig
	h   *host
	tr  *tracer
	or  *oracle

	writerC *vnlclient.Client
	readerC []*vnlclient.Client
	stmts   []*vnlclient.Stmt
	gens    []*queryGen
	feed    *feed
	batches int

	observed   []observation
	violations []string
	// The last exchange of each kind, replayed through the codec afterwards.
	lastParams vnlclient.Params
	lastRows   *vnlclient.Rows
	lastBatch  []vnlclient.Delta
}

// phase is what one window measured.
type phase struct {
	elapsed  time.Duration
	readUS   []float64
	batchMS  []float64
	attempts int // queries and batches sent
	failed   int // errors, refusals and timeouts; an expired session is neither
	sessions int
	expired  int // sessions ended by ErrSessionExpired (each wastes one query)
	deltas   int
	userB    int64 // encoded delta payload
	gcPasses int
	gcRemove int
	gcNS     int64

	fs   fsCounts
	obs  map[string]int64
	pool storage.IOStats

	observed   []observation
	violations []string
	lastParams vnlclient.Params
	lastRows   *vnlclient.Rows
}

func (p *phase) violate(format string, args ...any) {
	if len(p.violations) < 8 {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
}

func (p *phase) merge(q *phase) {
	p.readUS = append(p.readUS, q.readUS...)
	p.batchMS = append(p.batchMS, q.batchMS...)
	p.attempts += q.attempts
	p.failed += q.failed
	p.sessions += q.sessions
	p.expired += q.expired
	p.deltas += q.deltas
	p.userB += q.userB
	p.gcPasses += q.gcPasses
	p.gcRemove += q.gcRemove
	p.gcNS += q.gcNS
	p.observed = append(p.observed, q.observed...)
	p.violations = append(p.violations, q.violations...)
	if q.lastRows != nil {
		p.lastParams, p.lastRows = q.lastParams, q.lastRows
	}
}

// setUp builds the system and brings it to the state the windows start
// from: engine open, table created, server listening, clients connected,
// the table bulk-loaded over the wire, statements prepared. Its duration is
// setup_s — what an operator waits for before the first query.
func setUp(w *workload, cfg runConfig, n int) (*env, time.Duration, error) {
	start := time.Now()
	e := &env{w: w, cfg: cfg, tr: newTracer(), or: newOracle(w.rows), feed: newFeed(cfg.seed, w.rows)}
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d-%d", w.name, os.Getpid(), n))
	var err error
	if e.h, err = openHost(w, dir, e.tr); err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*env, time.Duration, error) {
		e.tearDown()
		return nil, 0, err
	}
	// One client per connection: a vnlclient.Client pools, and a closed
	// loop on it never holds more than one connection.
	dial := func() (*vnlclient.Client, error) {
		return vnlclient.Dial(e.h.addr(), vnlclient.Options{MaxIdle: 1, ClientName: "benchmark"})
	}
	if e.writerC, err = dial(); err != nil {
		return fail(err)
	}
	for k := 0; k*loadBatchRows < w.rows; k++ {
		ds := loadBatch(cfg.seed, k, w.rows)
		res, err := e.writerC.ApplyBatch(ds)
		if err != nil {
			return fail(fmt.Errorf("bulk load: %w", err))
		}
		if err := e.or.apply(ds, res.VN); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < w.readers(); i++ {
		c := e.writerC
		if w.writer || i > 0 {
			if c, err = dial(); err != nil {
				return fail(err)
			}
		}
		stmt, err := c.Prepare(w.sql)
		if err != nil {
			return fail(err)
		}
		e.readerC = append(e.readerC, c)
		e.stmts = append(e.stmts, stmt)
		e.gens = append(e.gens, newQueryGen(cfg.seed, i, w.rows))
	}
	return e, time.Since(start), nil
}

// tearDown stops everything the run started and removes its directory.
func (e *env) tearDown() error {
	err := e.closeClients()
	err = errors.Join(err, e.h.close())
	if e.h.dir != "" {
		err = errors.Join(err, os.RemoveAll(e.h.dir))
	}
	return err
}

func (e *env) closeClients() error {
	var err error
	for _, c := range e.readerC {
		err = errors.Join(err, c.Close())
	}
	if e.writerC != nil {
		err = errors.Join(err, e.writerC.Close())
	}
	e.readerC, e.writerC = nil, nil
	return err
}

// readSession runs one reader session on connection i: begin, up to
// sessionLen prepared queries, close. more reports whether to keep going.
func (e *env) readSession(i int, p *phase, more func() bool) {
	w, tr, c := e.w, e.tr, e.readerC[i]
	traced := tr.on.Load()
	var (
		sess *vnlclient.Session
		seq  int64
		err  error
	)
	if traced {
		// Serialized while tracing so that client and server number the
		// sessions alike; see tracer.
		tr.beginMu.Lock()
		tr.clientBegin++
		seq = tr.clientBegin
		start := tr.now()
		sess, err = c.Begin()
		tr.add(spClientBegin, start, tr.now(), beginOp(seq))
		tr.beginMu.Unlock()
	} else {
		sess, err = c.Begin()
	}
	if err != nil {
		p.attempts++
		p.failed++
		p.violate("begin session: %v", err)
		return
	}
	p.sessions++
	defer sess.Close()
	for k := 0; k < w.sessionLen && more(); k++ {
		v := w.param(e.gens[i])
		var params vnlclient.Params
		if w.paramName != "" {
			params = vnlclient.Params{w.paramName: v}
		}
		start := tr.now()
		rows, err := sess.QueryStmt(e.stmts[i], params)
		end := tr.now()
		if traced {
			tr.add(spClientQuery, start, end, queryOp(seq, k))
		}
		p.attempts++
		if err != nil {
			if code, ok := vnlclient.ErrorCode(err); ok && code == vnlclient.CodeSessionExpired {
				p.expired++
				return
			}
			p.failed++
			p.violate("query: %v", err)
			return
		}
		p.readUS = append(p.readUS, float64(end-start)/1e3)
		p.lastParams, p.lastRows = params, rows
		e.check(p, sess.VN(), v.Int(), rows)
	}
}

// check verifies an answer now when a closed form exists and queues it for
// the oracle otherwise.
func (e *env) check(p *phase, vn uint64, arg int64, rows *vnlclient.Rows) {
	switch e.w.kind {
	case readPoint:
		qty, amount := baseRow(e.cfg.seed, arg)
		if len(rows.Tuples) != 1 || rows.Tuples[0][0].Int() != arg ||
			rows.Tuples[0][1].Int() != qty || rows.Tuples[0][2].Int() != amount {
			p.violate("point read of id %d: got %v, want (%d, %d, %d)", arg, rows.Tuples, arg, qty, amount)
		}
	case readScan:
		p.observed = append(p.observed, observeScan(vn, arg, rows.Tuples))
	case readAgg:
		ob, err := observeAgg(vn, rows.Tuples)
		if err != nil {
			p.violate("%v", err)
			return
		}
		p.observed = append(p.observed, ob)
	}
}

// writeBatch sends the next maintenance batch and replays it into the
// oracle once acknowledged. An error here ends the run: the feed and the
// store would disagree about which keys are live.
func (e *env) writeBatch(p *phase) error {
	tr := e.tr
	ds := e.feed.next()
	p.userB += int64(len(server.ApplyBatch{Deltas: ds}.Encode()))
	traced := tr.on.Load()
	start := tr.now()
	res, err := e.writerC.ApplyBatch(ds)
	end := tr.now()
	if traced {
		tr.clientApply++
		tr.add(spClientApply, start, end, applyOp(tr.clientApply))
	}
	p.attempts++
	if err != nil {
		p.failed++
		return fmt.Errorf("apply batch: %w", err)
	}
	if int(res.Applied) != len(ds) || res.Missing != 0 {
		return fmt.Errorf("apply batch: %d of %d deltas applied, %d missed their key", res.Applied, len(ds), res.Missing)
	}
	if err := e.or.apply(ds, res.VN); err != nil {
		return err
	}
	p.batchMS = append(p.batchMS, float64(end-start)/1e6)
	p.deltas += len(ds)
	e.lastBatch = ds
	e.batches++
	if e.batches%gcEveryBatches == 0 {
		return e.gc(p)
	}
	return nil
}

func (e *env) gc(p *phase) error {
	tr := e.tr
	traced := tr.on.Load()
	var op int64
	if traced {
		tr.gcSeq++
		op = gcOp(tr.gcSeq)
		tr.curOp.Store(op)
	}
	start := tr.now()
	removed, err := e.h.gc()
	end := tr.now()
	if traced {
		tr.add(spGC, start, end, op)
		tr.curOp.Store(0)
	}
	p.gcPasses++
	p.gcRemove += removed
	p.gcNS += end - start
	if err != nil {
		return fmt.Errorf("gc: %w", err)
	}
	return nil
}

func (e *env) poolStats() storage.IOStats {
	var s storage.IOStats
	for _, st := range e.h.stores() {
		t := st.DB().Pool().Stats()
		s.Hits += t.Hits
		s.Misses += t.Misses
		s.WriteBacks += t.WriteBacks
	}
	return s
}

// runPhase drives every connection of the workload for d and returns what
// they and the counters around them saw.
func (e *env) runPhase(d time.Duration) (*phase, error) {
	fs0, obs0, pool0 := e.h.fs.counts(), e.h.obsCounters(), e.poolStats()
	start := time.Now()
	deadline := start.Add(d)
	more := func() bool { return time.Now().Before(deadline) }

	parts := make([]*phase, e.w.readers()+1)
	var (
		wg        sync.WaitGroup
		writerErr error
	)
	for i := 0; i < e.w.readers(); i++ {
		parts[i] = &phase{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for more() && parts[i].failed < 16 {
				e.readSession(i, parts[i], more)
			}
		}(i)
	}
	parts[len(parts)-1] = &phase{}
	if e.w.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() && writerErr == nil {
				writerErr = e.writeBatch(parts[len(parts)-1])
			}
		}()
	}
	wg.Wait()

	p := &phase{elapsed: time.Since(start)}
	for _, q := range parts {
		p.merge(q)
	}
	p.fs = e.h.fs.counts().sub(fs0)
	p.pool = e.poolStats().Sub(pool0)
	p.obs = e.h.obsCounters()
	for n, v := range obs0 {
		p.obs[n] -= v
	}
	e.absorb(p)
	return p, writerErr
}

// absorb keeps what a window's checks need after it: the queued answers,
// the violations, and the last exchange for the codec replay.
func (e *env) absorb(p *phase) {
	e.observed = append(e.observed, p.observed...)
	e.violations = append(e.violations, p.violations...)
	if p.lastRows != nil {
		e.lastParams, e.lastRows = p.lastParams, p.lastRows
	}
}

// The allocation probe runs at least probeReads queries and for at least
// probeTime: a point read allocates 37 times, so a few dozen of them would
// leave the runtime's own background allocations visible in the quotient.
const (
	probeReads = 64
	probeTime  = 200 * time.Millisecond
)

// allocProbe runs reader sessions alone on the quiesced system and divides
// the runtime's allocation counters by the queries. Server and client share
// this process, so the figure covers both sides of the wire; with one
// goroutine active at a time it repeats almost exactly.
func (e *env) allocProbe() (mallocs, bytes float64, reads int, err error) {
	// The writer stopped wherever the window ended; collecting what it left
	// logically deleted makes every run probe the same number of tuples.
	if _, err := e.h.gc(); err != nil {
		return 0, 0, 0, err
	}
	always := func() bool { return true }
	p := &phase{}
	e.readSession(0, p, always) // untimed: lets buffers reach their working size
	warm := len(p.readUS)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); p.failed+p.expired == 0 && (len(p.readUS)-warm < probeReads || time.Since(start) < probeTime); {
		e.readSession(0, p, always)
	}
	runtime.ReadMemStats(&m1)
	e.absorb(p)
	reads = len(p.readUS) - warm
	if p.failed > 0 || p.expired > 0 {
		return 0, 0, 0, fmt.Errorf("allocation probe: %d failed, %d expired, %d reads", p.failed, p.expired, reads)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(reads), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reads), reads, nil
}
