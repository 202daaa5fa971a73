package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// spanKind names a layer boundary. Spans are recorded from this package
// only, around the calls into each layer; the program itself carries none.
type spanKind uint8

const (
	spClientQuery spanKind = iota
	spClientApply
	spClientBegin
	spBackendQuery
	spBackendApply
	spBackendBegin
	spWALAppend // synthetic: starts at LogBegin and lasts the summed Log* time of the transaction
	spWALCommit
	spFsync      // a shard or store WAL
	spEpochFsync // the router's epoch log
	spGC
	spBeforePrepare // the router's hooks are instants: start == end
	spBeforeShardCommit
	spBeforeFlip
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"vnlclient.query", "vnlclient.apply_batch", "vnlclient.begin",
	"server.backend_query", "server.backend_apply", "server.begin_session",
	"wal.append", "wal.commit", "wal.fsync", "shard.epoch_fsync", "core.gc",
	"shard.before_prepare", "shard.before_shard_commit", "shard.before_flip",
}

// spanParents lists, per kind, the kinds that can be its parent within one
// operation, nearest first.
var spanParents = [numSpanKinds][]spanKind{
	spBackendQuery:      {spClientQuery},
	spBackendApply:      {spClientApply},
	spBackendBegin:      {spClientBegin},
	spWALAppend:         {spBackendApply, spGC},
	spWALCommit:         {spBackendApply, spGC},
	spFsync:             {spWALCommit, spBackendApply, spGC},
	spEpochFsync:        {spBackendApply},
	spBeforePrepare:     {spBackendApply},
	spBeforeShardCommit: {spBackendApply},
	spBeforeFlip:        {spBackendApply},
}

// span is {name, start, end, parent, op id}; times are nanoseconds since
// the tracer was created, parent is an index into the span list (-1 for a
// root, set by link), and the spans of one request share op.
type span struct {
	Kind       spanKind
	Start, End int64
	Parent     int32
	Op         int64
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the memory of a traced window (32 MiB of spans); the
// point workload produces about 10⁵ spans a second.
const maxSpans = 1 << 20

// spansPerOp is an upper bound on the spans one client operation leaves: a
// sharded batch has its client, backend, hook and fsync spans.
const spansPerOp = 12

// tracer holds the spans in memory until the run ends. It is shared by the
// client loops and the decorators inside the server; `on` is the only thing
// either side reads while tracing is off.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	// Spans are claimed by an atomic counter, not a lock: on the point
	// workload four goroutines record a span every few microseconds.
	buf  []span
	next atomic.Int64

	// Operation ids. Client and server count independently and agree
	// because the order is forced: session begins are serialized by beginMu
	// on the client while tracing, and one writer sends the batches.
	beginMu     sync.Mutex
	clientBegin int64
	serverBegin atomic.Int64
	clientApply int64
	serverApply atomic.Int64
	gcSeq       int64
	// curOp is the maintenance-side operation in flight (a batch or a GC
	// pass; they never overlap), read by the journal and file decorators.
	curOp atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start begins a traced window with room for the given number of spans; the
// system is quiescent (no session open, no batch in flight) whenever tracing
// is switched. The buffer is sized to the traffic because live heap is not
// neutral here: the scan workload allocates 12 MB a query, and a 32 MiB
// buffer makes its garbage collections rare enough to speed it up by a
// quarter.
func (t *tracer) start(spans int) {
	t.buf = make([]span, min(max(spans, 4096), maxSpans))
	t.next.Store(0)
	t.clientBegin, t.clientApply, t.gcSeq = 0, 0, 0
	t.serverBegin.Store(0)
	t.serverApply.Store(0)
	t.curOp.Store(0)
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

func (t *tracer) add(k spanKind, start, end, op int64) {
	if i := t.next.Add(1) - 1; i < int64(len(t.buf)) {
		t.buf[i] = span{Kind: k, Start: start, End: end, Op: op}
	}
}

// spans returns what a stopped window recorded and how many spans found the
// buffer full.
func (t *tracer) spans() ([]span, int) {
	n, size := t.next.Load(), int64(len(t.buf))
	return t.buf[:min(n, size)], int(max(n-size, 0))
}

// Operation ids keep the three families apart: a query is its session's
// number and its position in the session, a batch its sequence number, a
// GC pass a negative sequence number.
func queryOp(sessionSeq int64, k int) int64 { return sessionSeq<<20 | int64(k+1) }
func beginOp(sessionSeq int64) int64        { return sessionSeq << 20 }
func applyOp(seq int64) int64               { return 1<<60 | seq }
func gcOp(seq int64) int64                  { return -seq }

type opKey struct {
	kind spanKind
	op   int64
}

// link resolves every span's parent: the span of the nearest parent kind
// with the same op id. The per-shard hooks and fsyncs of one batch share an
// op, so a key may hold several spans; any of them has the same parent.
func link(spans []span) {
	first := make(map[opKey]int32, len(spans))
	for i, s := range spans {
		k := opKey{s.Kind, s.Op}
		if _, ok := first[k]; !ok {
			first[k] = int32(i)
		}
	}
	for i := range spans {
		spans[i].Parent = -1
		for _, pk := range spanParents[spans[i].Kind] {
			if p, ok := first[opKey{pk, spans[i].Op}]; ok {
				spans[i].Parent = p
				break
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other and are
// clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// traceFileSpans bounds the trace file; the statistics use every span.
const traceFileSpans = 50000

type spanJSON struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

func writeTrace(path string, spans []span, dropped int) error {
	n := min(len(spans), traceFileSpans)
	out := struct {
		Recorded int        `json:"spans_recorded"`
		Dropped  int        `json:"spans_dropped"`
		Spans    []spanJSON `json:"spans"`
	}{Recorded: len(spans), Dropped: dropped, Spans: make([]spanJSON, n)}
	for i, s := range spans[:n] {
		// A parent beyond the cut would dangle; the file says so with -2.
		p := s.Parent
		if int(p) >= n {
			p = -2
		}
		out.Spans[i] = spanJSON{spanNames[s.Kind], s.Start, s.End, p, s.Op}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ---- decorators: the layer boundaries inside the server ----

// tracedBackend wraps the server.Backend handed to server.Config, so every
// request's engine time is known apart from its wire time.
type tracedBackend struct {
	server.Backend
	tr *tracer
}

func (b tracedBackend) BeginSession() (server.BackendSession, error) {
	if !b.tr.on.Load() {
		return b.Backend.BeginSession()
	}
	seq := b.tr.serverBegin.Add(1)
	start := b.tr.now()
	s, err := b.Backend.BeginSession()
	b.tr.add(spBackendBegin, start, b.tr.now(), beginOp(seq))
	if err != nil {
		return nil, err
	}
	return &tracedSession{BackendSession: s, tr: b.tr, seq: seq}, nil
}

func (b tracedBackend) ApplyBatch(deltas []core.Delta) (core.VN, core.BatchStats, error) {
	if !b.tr.on.Load() {
		return b.Backend.ApplyBatch(deltas)
	}
	op := applyOp(b.tr.serverApply.Add(1))
	b.tr.curOp.Store(op)
	start := b.tr.now()
	vn, stats, err := b.Backend.ApplyBatch(deltas)
	b.tr.add(spBackendApply, start, b.tr.now(), op)
	b.tr.curOp.Store(0)
	return vn, stats, err
}

// tracedSession is a session begun while tracing; its queries are numbered
// in order, as the client numbers them.
type tracedSession struct {
	server.BackendSession
	tr  *tracer
	seq int64
	k   int
}

func (s *tracedSession) QueryPrepared(stmt server.BackendStmt, params exec.Params) (*exec.Rows, error) {
	start := s.tr.now()
	rows, err := s.BackendSession.QueryPrepared(stmt, params)
	s.tr.add(spBackendQuery, start, s.tr.now(), queryOp(s.seq, s.k))
	s.k++
	return rows, err
}

// tracedJournal wraps the *wal.Log a single store journals to. The Log*
// calls of one transaction are too many to be spans of their own (one per
// physical change), so their time is summed into one wal.append span.
type tracedJournal struct {
	core.Journal
	tr       *tracer
	beginAt  atomic.Int64
	appendNS atomic.Int64 // the parallel appliers call Log* concurrently
}

// begin and end bracket one Log* call; begin returns -1 while tracing is
// off, so the untraced path costs one atomic load.
func (j *tracedJournal) begin() int64 {
	if !j.tr.on.Load() {
		return -1
	}
	return j.tr.now()
}

func (j *tracedJournal) end(start int64) {
	if start >= 0 {
		j.appendNS.Add(j.tr.now() - start)
	}
}

func (j *tracedJournal) LogBegin(vn core.VN) {
	j.beginAt.Store(j.tr.now())
	j.appendNS.Store(0)
	start := j.begin()
	j.Journal.LogBegin(vn)
	j.end(start)
}

func (j *tracedJournal) LogInsert(table string, rid storage.RID, after catalog.Tuple) {
	start := j.begin()
	j.Journal.LogInsert(table, rid, after)
	j.end(start)
}

func (j *tracedJournal) LogUpdate(table string, rid storage.RID, before, after catalog.Tuple) {
	start := j.begin()
	j.Journal.LogUpdate(table, rid, before, after)
	j.end(start)
}

func (j *tracedJournal) LogDelete(table string, rid storage.RID, before catalog.Tuple) {
	start := j.begin()
	j.Journal.LogDelete(table, rid, before)
	j.end(start)
}

func (j *tracedJournal) LogCommit(vn core.VN) error {
	if !j.tr.on.Load() {
		return j.Journal.LogCommit(vn)
	}
	op := j.tr.curOp.Load()
	start := j.tr.now()
	err := j.Journal.LogCommit(vn)
	j.tr.add(spWALCommit, start, j.tr.now(), op)
	begin := j.beginAt.Load()
	j.tr.add(spWALAppend, begin, begin+j.appendNS.Load(), op)
	return err
}

// countingFS sits under wal.CreateFS and shard.Options.FS: what reaches
// the device. The counters always run (the untraced window needs the
// bytes); fsyncs become spans while tracing.
type countingFS struct {
	vfs.FS
	tr                           *tracer
	writes, bytes, syncs, syncNS atomic.Int64
}

type fsCounts struct{ writes, bytes, syncs, syncNS int64 }

func (c *countingFS) counts() fsCounts {
	return fsCounts{c.writes.Load(), c.bytes.Load(), c.syncs.Load(), c.syncNS.Load()}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.writes - b.writes, a.bytes - b.bytes, a.syncs - b.syncs, a.syncNS - b.syncNS}
}

func (c *countingFS) wrap(f vfs.File, err error, path string) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	kind := spFsync
	if strings.HasSuffix(path, "epoch.log") {
		kind = spEpochFsync
	}
	return &countingFile{File: f, fs: c, kind: kind}, nil
}

func (c *countingFS) Create(path string) (vfs.File, error) {
	f, err := c.FS.Create(path)
	return c.wrap(f, err, path)
}

func (c *countingFS) OpenAppend(path string) (vfs.File, error) {
	f, err := c.FS.OpenAppend(path)
	return c.wrap(f, err, path)
}

type countingFile struct {
	vfs.File
	fs   *countingFS
	kind spanKind
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	tr := f.fs.tr
	start := tr.now()
	err := f.File.Sync()
	end := tr.now()
	f.fs.syncs.Add(1)
	f.fs.syncNS.Add(end - start)
	if tr.on.Load() {
		tr.add(f.kind, start, end, tr.curOp.Load())
	}
	return err
}

// shardHooks turns the router's publish seams into instants of the batch in
// flight; with the epoch-log fsync they split a publish into prepare,
// apply, commit and flip.
func shardHooks(tr *tracer) shard.Hooks {
	mark := func(k spanKind) {
		if tr.on.Load() {
			now := tr.now()
			tr.add(k, now, now, tr.curOp.Load())
		}
	}
	return shard.Hooks{
		BeforePrepare:     func(core.VN) { mark(spBeforePrepare) },
		BeforeShardCommit: func(int, core.VN) { mark(spBeforeShardCommit) },
		BeforeFlip:        func(core.VN) { mark(spBeforeFlip) },
	}
}
