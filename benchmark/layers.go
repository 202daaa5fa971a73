package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics turns a traced window into the per-layer figures: span
// medians, self times, and the counters taken at the same boundaries.
// untraced is the window before it, for the tracing overhead.
func layerMetrics(untraced, traced *phase, spans []span) map[string]float64 {
	link(spans)
	self := selfTimes(spans)
	us := make([][]float64, numSpanKinds)
	for _, s := range spans {
		us[s.Kind] = append(us[s.Kind], float64(s.dur())/1e3)
	}
	m := map[string]float64{
		"vnlclient.query_us":       median(us[spClientQuery]),
		"vnlclient.apply_batch_us": median(us[spClientApply]),
		"server.backend_query_us":  median(us[spBackendQuery]),
		"server.backend_apply_us":  median(us[spBackendApply]),
		"server.begin_session_us":  median(us[spBackendBegin]),
		"wal.fsync_us":             median(append(us[spFsync], us[spEpochFsync]...)),
		"core.gc_ms_per_pass":      ratio(float64(traced.gcNS)/1e6, float64(traced.gcPasses)),
		"core.gc_removed_per_pass": ratio(float64(traced.gcRemove), float64(traced.gcPasses)),
	}

	// Wire time is the client span's self time; the engine's share of a
	// query is what separates scan from point.
	var wire, applySelf, walAppend, walCommit []float64
	var clientSum, backendSum float64
	for i, s := range spans {
		switch s.Kind {
		case spClientQuery:
			wire = append(wire, float64(self[i])/1e3)
			clientSum += float64(s.dur())
		case spBackendQuery:
			backendSum += float64(s.dur())
		case spBackendApply:
			applySelf = append(applySelf, float64(self[i])/1e3/batchDeltas)
		case spWALAppend, spWALCommit:
			if s.Op < 0 { // a GC pass's pseudo-transaction
				continue
			}
			if s.Kind == spWALAppend {
				walAppend = append(walAppend, float64(s.dur())/1e3)
			} else {
				walCommit = append(walCommit, float64(s.dur())/1e3)
			}
		}
	}
	m["server.wire_us_per_op"] = median(wire)
	m["server.backend_query_share"] = ratio(backendSum, clientSum)
	m["core.apply_us_per_delta"] = median(applySelf)
	m["wal.append_us_per_batch"] = median(walAppend)
	m["wal.commit_us"] = median(walCommit)
	shardPublishMetrics(m, spans)

	c := func(name string) float64 { return float64(traced.obs[name]) }
	batches, deltas := float64(len(traced.batchMS)), float64(traced.deltas)
	cached := c("core_prepared_rewrite_hits_total") + c("core_plan_cache_hits_total")
	m["core.plan_cache_hit_ratio"] = ratio(cached, cached+c("core_prepared_rewrite_misses_total")+c("core_plan_cache_misses_total"))
	// Counted at the client: a router session is one session, however many
	// shard sessions the stores' own counters saw.
	m["core.session_expired_ratio"] = ratio(float64(traced.expired), float64(traced.sessions))
	m["core.physical_ops_per_delta"] = ratio(c("core_maint_physical_inserts_total")+c("core_maint_physical_updates_total")+c("core_maint_physical_deletes_total"), c("core_maint_batch_deltas_total"))
	m["core.net_effect_folds_per_batch"] = ratio(c("core_maint_net_effect_folds_total"), batches)
	m["core.commit_us"] = ratio(c("core_maint_commit_ns.sum")/1e3, c("core_maint_commit_ns.count"))
	m["wal.fsyncs_per_batch"] = ratio(float64(traced.fs.syncs), batches)
	m["wal.writes_per_batch"] = ratio(float64(traced.fs.writes), batches)
	m["wal.bytes_per_delta"] = ratio(float64(traced.fs.bytes), deltas)
	m["wal.bytes_per_user_byte"] = ratio(float64(traced.fs.bytes), float64(traced.userB))
	m["storage.pool_hit_ratio"] = ratio(float64(traced.pool.Hits), float64(traced.pool.Hits+traced.pool.Misses))
	m["shard.fanout_ratio"] = ratio(c("shard_queries_fanned_out"), c("shard_queries_fanned_out")+c("shard_queries_routed"))
	m["shard.begin_retries"] = c("shard_begin_retries")
	m["vnlclient.deltas_per_s"] = ratio(deltas, traced.elapsed.Seconds())
	m["trace.overhead_ratio"] = ratio(ratio(float64(len(untraced.readUS)), untraced.elapsed.Seconds()),
		ratio(float64(len(traced.readUS)), traced.elapsed.Seconds()))
	return m
}

// shardPublishMetrics splits each two-phase publish at the router's hooks:
// prepare is BeforePrepare to the epoch log's fsync, apply from there to
// the first shard's commit, commit until BeforeFlip, flip the rest.
func shardPublishMetrics(m map[string]float64, spans []span) {
	type publish struct{ prepare, prepared, commit, flip, end int64 }
	byOp := map[int64]*publish{}
	at := func(op int64) *publish {
		p := byOp[op]
		if p == nil {
			p = &publish{}
			byOp[op] = p
		}
		return p
	}
	for _, s := range spans {
		switch s.Kind {
		case spBeforePrepare:
			at(s.Op).prepare = s.Start
		case spEpochFsync:
			if p := at(s.Op); p.prepared == 0 { // the prepare record's; the flip record's comes later
				p.prepared = s.End
			}
		case spBeforeShardCommit:
			if p := at(s.Op); p.commit == 0 || s.Start < p.commit {
				p.commit = s.Start
			}
		case spBeforeFlip:
			at(s.Op).flip = s.Start
		case spBackendApply:
			at(s.Op).end = s.End
		}
	}
	var prepare, apply, commit, flip []float64
	for _, p := range byOp {
		if p.prepare == 0 || p.prepared == 0 || p.commit == 0 || p.flip == 0 || p.end == 0 {
			continue
		}
		prepare = append(prepare, float64(p.prepared-p.prepare)/1e3)
		apply = append(apply, float64(p.commit-p.prepared)/1e3)
		commit = append(commit, float64(p.flip-p.commit)/1e3)
		flip = append(flip, float64(p.end-p.flip)/1e3)
	}
	m["shard.prepare_us"] = median(prepare)
	m["shard.apply_us"] = median(apply)
	m["shard.commit_us"] = median(commit)
	m["shard.flip_us"] = median(flip)
}

// rung times fn, called back to back on one goroutine, and returns the mean
// nanoseconds per call. It stops at maxCalls or when the budget is spent.
func rung(budget time.Duration, maxCalls int, fn func() error) (float64, error) {
	start := time.Now()
	n := 0
	for n < maxCalls {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
		if (n < 8 || n%8 == 0) && time.Since(start) > budget {
			break
		}
	}
	return float64(time.Since(start)) / float64(n), nil
}

const ladderCalls = 2000

// ladder measures each layer below the wire alone: one goroutine, the
// quiesced store, the workload's own statement and last parameters.
func (e *env) ladder(m map[string]float64, budget time.Duration) error {
	w := e.w
	st := e.h.stores()[0]
	vt, err := st.Table(factTable)
	if err != nil {
		return err
	}
	params := exec.Params(e.lastParams)
	prep, err := st.Prepare(w.sql)
	if err != nil {
		return err
	}
	sess := st.BeginSession()
	defer sess.Close()
	bound := exec.Params{"sessionVN": catalog.NewInt(int64(sess.VN()))}
	for k, v := range params {
		bound[k] = v
	}

	// Each rung feeds the next: the parsed statement is rewritten, the
	// rewritten one compiled, the compiled one executed.
	var (
		sel, rw *sql.SelectStmt
		plan    *exec.Plan
		rows    *exec.Rows
		keys    []catalog.Tuple
		tuples  int
		lookups int
	)
	rungs := []struct {
		name  string
		scale float64 // nanoseconds per unit of the metric
		fn    func() error
	}{
		{"sql.parse_us", 1e3, func() (err error) { sel, err = sql.ParseSelect(w.sql); return }},
		{"core.rewrite_us", 1e3, func() (err error) { rw, err = core.RewriteSelect(st, sel); return }},
		{"exec.compile_us", 1e3, func() (err error) { plan, err = exec.CompileSelect(st.DB(), rw, nil); return }},
		{"exec.execute_us", 1e3, func() (err error) { rows, err = plan.Execute(st.DB(), bound); return }},
		{"core.query_us", 1e3, func() error { _, err := sess.QueryPrepared(prep, params); return err }},
		{"storage.scan_ns_per_tuple", 1, func() error {
			tuples = 0
			vt.Storage().Scan(func(_ storage.RID, t catalog.Tuple) bool {
				if len(keys) < 1024 {
					keys = append(keys, vt.Ext().KeyOfBase(vt.Ext().BaseValues(t)))
				}
				tuples++
				return true
			})
			return nil
		}},
		{"index.lookup_ns", 1, func() error {
			key := keys[lookups%len(keys)]
			lookups++
			if _, ok := vt.Storage().SearchKey(key); !ok {
				return fmt.Errorf("key %v not found", key)
			}
			return nil
		}},
	}
	for _, r := range rungs {
		ns, err := rung(budget, ladderCalls, r.fn)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", r.name, err)
		}
		m[r.name] = ns / r.scale
	}
	m["exec.rows_examined_per_row"] = ratio(float64(vt.Len()), float64(rows.Len()))
	m["storage.scan_ns_per_tuple"] /= float64(max(tuples, 1))

	if w.writer {
		if err := e.ladderWrites(m, budget, st, vt); err != nil {
			return err
		}
	}
	if e.h.router != nil {
		if err := e.ladderMerge(m, budget, sel, params); err != nil {
			return err
		}
	}
	return e.ladderCodec(m, budget)
}

// ladderWrites runs the next batch of the stream through the sequential
// applier (the -apply-workers 1 path) and rolls it back.
func (e *env) ladderWrites(m map[string]float64, budget time.Duration, st *core.Store, vt *core.VTable) error {
	var ds []core.Delta
	for i, d := range e.feed.next() {
		// The wire op bytes are core.DeltaOp's values.
		cd := core.Delta{Table: d.Table, Op: core.DeltaOp(d.Op), Row: d.Row, Key: d.Key}
		if e.h.router != nil { // shard 0 holds only its partition
			if p, err := core.PartitionDelta(vt.Base(), cd, i, shardCount); err != nil || p != 0 {
				continue
			}
		}
		ds = append(ds, cd)
	}
	ns, err := rung(budget, 8, func() error {
		mt, err := st.BeginMaintenance()
		if err != nil {
			return err
		}
		if _, err := mt.ApplyBatchSeq(ds); err != nil {
			return err
		}
		return mt.Rollback()
	})
	if err != nil {
		return fmt.Errorf("ladder core.apply_seq_us_per_delta: %w", err)
	}
	// The rung includes the rollback; it is the only way to leave the store
	// as the oracle knows it.
	m["core.apply_seq_us_per_delta"] = ns / 1e3 / float64(len(ds))
	return nil
}

// ladderMerge prices the router's fan-out and concatenation: the routed
// query against its shards answering alone at the same epoch.
func (e *env) ladderMerge(m map[string]float64, budget time.Duration, sel *sql.SelectStmt, params exec.Params) error {
	r := e.h.router
	rs, err := r.BeginSession()
	if err != nil {
		return err
	}
	defer rs.Close()
	routed, err := rung(budget, ladderCalls, func() error { _, err := rs.QueryStmt(sel, params); return err })
	if err != nil {
		return err
	}
	var shardsNS float64
	for i := 0; i < r.Shards(); i++ {
		ss, err := r.Shard(i).BeginSessionAt(rs.VN())
		if err != nil {
			return err
		}
		ns, err := rung(budget, ladderCalls, func() error { _, err := ss.QueryStmt(sel, params); return err })
		ss.Close()
		if err != nil {
			return err
		}
		shardsNS += ns
	}
	// The router asks its shards one after another, so the shards' sum is
	// what it waits for; the rest is routing and concatenation.
	m["shard.merge_us_per_query"] = (routed - shardsNS) / 1e3
	return nil
}

// ladderCodec replays the last recorded exchange through the wire codec on
// a bytes.Buffer: encode, frame, unframe, decode, both directions.
func (e *env) ladderCodec(m map[string]float64, budget time.Duration) error {
	var buf bytes.Buffer
	frameBytes := 0
	roundTrip := func(t server.MsgType, body []byte) ([]byte, error) {
		buf.Reset()
		if err := server.WriteFrame(&buf, t, body); err != nil {
			return nil, err
		}
		frameBytes += buf.Len()
		_, got, err := server.ReadFrame(&buf)
		return got, err
	}
	req := server.ExecStmt{SID: 1, StmtID: 1, Params: e.lastParams}
	resp := server.Rows{Columns: e.lastRows.Columns, Tuples: e.lastRows.Tuples}
	ns, err := rung(budget, ladderCalls, func() error {
		frameBytes = 0
		b, err := roundTrip(server.MsgExecStmt, req.Encode())
		if err != nil {
			return err
		}
		if _, err := server.DecodeExecStmt(b); err != nil {
			return err
		}
		if b, err = roundTrip(server.MsgRows, resp.Encode()); err != nil {
			return err
		}
		_, err = server.DecodeRows(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("ladder server.codec_us_per_op: %w", err)
	}
	m["server.codec_us_per_op"] = ns / 1e3
	m["server.frame_bytes_per_op"] = float64(frameBytes)
	if e.lastBatch == nil {
		return nil
	}
	ns, err = rung(budget, ladderCalls, func() error {
		b, err := roundTrip(server.MsgApplyBatch, server.ApplyBatch{Deltas: e.lastBatch}.Encode())
		if err != nil {
			return err
		}
		_, err = server.DecodeApplyBatch(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("ladder server.batch_codec_us: %w", err)
	}
	m["server.batch_codec_us"] = ns / 1e3
	return nil
}
