package crashtest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// ShardSweep is the crash sweep for the shard router's two-phase version
// publish: the scripted Tables 2–4 workload — re-cast as router batches so
// every epoch is one cross-shard publish — runs over the fault-injecting
// filesystem with every shard's WAL and the router's epoch log on it, and
// is crashed before every persisting I/O boundary: epoch-log prepare and
// flip forces, every shard's WAL appends and commit fsyncs, in every
// interleaving the per-shard commit goroutines produce. After each crash
// the whole shard set is recovered through shard.Open and checked for the
// protocol's promises:
//
//   - the recovered epoch is exactly some pre-crash publish point, and at
//     least the last publish the router acknowledged (all-or-nothing);
//   - every shard sits exactly at the recovered epoch — a prepare caught
//     mid-flight is rolled forward on the lagging shards (or rolled off
//     entirely), never left mixed;
//   - a cross-shard session scan reproduces the oracle's logical state at
//     that epoch, rows merged across shards;
//   - every shard passes the Table 1 structural invariants;
//   - the recovered router accepts and publishes new work.
func ShardSweep(cfg Config) (Report, error) {
	cfg = cfg.normalize()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	var rep Report

	// Pass 0: crash-free count + end-state check.
	fs := vfs.NewFaultFS(vfs.NewScript())
	st := &runState{}
	crash, err := vfs.Recovering(func() error { return runShards(cfg, fs, st) })
	if crash != nil {
		return rep, fmt.Errorf("crashtest: shard base run crashed at op %d without CrashAt", crash.Op)
	}
	if err != nil {
		return rep, fmt.Errorf("crashtest: shard workload: %w", err)
	}
	rep.PersistOps = fs.PersistOps()
	rep.Commits = st.commits
	if err := validateShards(cfg, fs, st); err != nil {
		return rep, fmt.Errorf("crashtest: shard crash-free run: %w", err)
	}

	for at := 1; at <= rep.PersistOps; at++ {
		script := vfs.NewScript().WithCrash(at)
		fs := vfs.NewFaultFS(script)
		st := &runState{}
		crash, err := vfs.Recovering(func() error { return runShards(cfg, fs, st) })
		if err != nil && !strings.Contains(err.Error(), errStopped.Error()) {
			rep.FailScript = script.String()
			return rep, fmt.Errorf("crashtest: shard crash point %d: workload: %w", at, err)
		}
		if err != nil {
			rep.FaultStops++
		}
		if crash == nil && err == nil {
			// The run finished before reaching op `at`; nothing more to sweep.
			break
		}
		rep.Points++
		if err := validateShards(cfg, fs, st); err != nil {
			rep.FailScript = script.String()
			return rep, fmt.Errorf("crashtest: shard crash point %d (%s): %w", at, describe(crash), err)
		}
	}
	return rep, nil
}

// shardBatch applies one batch through the router and maintains the oracle
// exactly like worker.txn: snapshot the pending state under the target VN
// before publishing (the publish may become durable even if the crash eats
// the acknowledgement), promote it on success.
func shardBatch(r *shard.Router, st *runState, cur model, deltas []core.Delta, pend model) (model, error) {
	target := r.EpochVN() + 1
	st.snapshots[target] = pend.clone()
	if _, _, err := r.ApplyBatch(deltas); err != nil {
		return cur, fmt.Errorf("%w: %v", errStopped, err)
	}
	st.acked = target
	st.commits++
	return pend, nil
}

// runShards drives the scripted workload against a durable router on fs.
func runShards(cfg Config, fs *vfs.FaultFS, st *runState) error {
	cur := newModel()
	st.snapshots = map[core.VN]model{1: cur.clone()}
	st.acked = 1

	r, err := shard.Open(shard.Options{
		Shards:   cfg.Shards,
		N:        cfg.N,
		PageSize: 256,
		FS:       fs,
		Dir:      "data",
	})
	if err != nil {
		return fmt.Errorf("%w: %v", errStopped, err)
	}
	if err := r.CreateTable(dimSchema()); err != nil {
		return fmt.Errorf("%w: %v", errStopped, err)
	}
	if err := r.CreateTable(factSchema()); err != nil {
		return fmt.Errorf("%w: %v", errStopped, err)
	}

	// Epoch 2: initial load (Table 2 row 3), rows spread across shards by
	// key hash.
	pend := cur.clone()
	var load []core.Delta
	for _, k := range []int64{1, 2, 3, 4, 101, 102, 103, 104} {
		row := dimRow(k, 10*k, fmt.Sprintf("n%d", k))
		load = append(load, core.Delta{Table: "dim", Op: core.DeltaInsert, Row: row})
		pend.put("dim", row)
	}
	for k := int64(1); k <= 6; k++ {
		row := factRow(k, k, float64(k)/2)
		load = append(load, core.Delta{Table: "fact", Op: core.DeltaInsert, Row: row})
		pend.put("fact", row)
	}
	if cur, err = shardBatch(r, st, cur, load, pend); err != nil {
		return err
	}

	// A cross-shard reader stays open across the next publish, pinning the
	// old epoch's pre-update versions on every shard.
	sess, err := r.BeginSession()
	if err != nil {
		return fmt.Errorf("%w: %v", errStopped, err)
	}

	// Epoch 3: the multi-touch cells — repeated update, delete, an
	// insert+update+delete net-effect pop, a surviving insert — now landing
	// on whichever shards the keys hash to.
	pend = cur.clone()
	row1 := dimRow(1, 112, "n1")
	row5a := dimRow(5, 50, "n5")
	row5b := dimRow(5, 55, "n5")
	row6 := dimRow(6, 60, "n6")
	fact1 := factRow(1, 1, 0.5+1.5)
	batch3 := []core.Delta{
		{Table: "dim", Op: core.DeltaUpdate, Row: dimRow(1, 111, "n1"), Key: intKey(1)},
		{Table: "dim", Op: core.DeltaUpdate, Row: row1, Key: intKey(1)},
		{Table: "dim", Op: core.DeltaDelete, Key: intKey(2)},
		{Table: "dim", Op: core.DeltaInsert, Row: row5a},
		{Table: "dim", Op: core.DeltaUpdate, Row: row5b, Key: intKey(5)},
		{Table: "dim", Op: core.DeltaDelete, Key: intKey(5)},
		{Table: "dim", Op: core.DeltaInsert, Row: row6},
		{Table: "fact", Op: core.DeltaUpdate, Row: fact1, Key: intKey(1)},
		{Table: "fact", Op: core.DeltaDelete, Key: intKey(3)},
	}
	pend.put("dim", row1)
	pend.delete("dim", 2)
	pend.put("dim", row6)
	pend.put("fact", fact1)
	pend.delete("fact", 3)
	if cur, err = shardBatch(r, st, cur, batch3, pend); err != nil {
		sess.Close()
		return err
	}

	// Epoch 4: re-insert over an earlier delete, then delete it again in
	// the same publish (Table 4 row 2 over a prior insert).
	pend = cur.clone()
	row4 := dimRow(4, 444, "n4")
	batch4 := []core.Delta{
		{Table: "dim", Op: core.DeltaInsert, Row: dimRow(2, 22, "re")},
		{Table: "dim", Op: core.DeltaDelete, Key: intKey(2)},
		{Table: "dim", Op: core.DeltaUpdate, Row: row4, Key: intKey(4)},
	}
	pend.put("dim", row4)
	if cur, err = shardBatch(r, st, cur, batch4, pend); err != nil {
		sess.Close()
		return err
	}

	sess.Close()

	// GC on every shard: each pass journals its physical deletes as a VN-0
	// pseudo-transaction, another faultable sync boundary per shard.
	for _, gcStats := range r.GC() {
		if gcStats.Err != nil {
			return fmt.Errorf("%w: %v", errStopped, gcStats.Err)
		}
	}

	// Epoch 5: the seeded tail, with deliberate missing-key skips.
	rng := rand.New(rand.NewSource(cfg.Seed))
	pend = cur.clone()
	var tail []core.Delta
	for i, n := 0, 10+rng.Intn(6); i < n; i++ {
		k := int64(10 + rng.Intn(8))
		switch _, exists := pend["dim"][k]; {
		case !exists:
			row := dimRow(k, k*100, "r")
			tail = append(tail, core.Delta{Table: "dim", Op: core.DeltaInsert, Row: row})
			pend.put("dim", row)
		case rng.Intn(3) == 0:
			tail = append(tail, core.Delta{Table: "dim", Op: core.DeltaDelete, Key: intKey(k)})
			pend.delete("dim", k)
		default:
			row := pend["dim"][k].Clone()
			row[1] = catalog.NewInt(rng.Int63n(1000))
			tail = append(tail, core.Delta{Table: "dim", Op: core.DeltaUpdate, Row: row, Key: intKey(k)})
			pend.put("dim", row)
		}
	}
	tail = append(tail, core.Delta{Table: "fact", Op: core.DeltaDelete, Key: intKey(999)})
	if _, err = shardBatch(r, st, cur, tail, pend); err != nil {
		return err
	}

	return r.Close()
}

// validateShards power-cuts fs, reopens the whole shard set, and checks the
// cross-shard durability invariants against the oracle.
func validateShards(cfg Config, fs *vfs.FaultFS, st *runState) error {
	fs.PowerCut()
	fs.SetScript(nil)
	r, err := shard.Open(shard.Options{
		Shards:   cfg.Shards,
		N:        cfg.N,
		PageSize: 256,
		FS:       fs,
		Dir:      "data",
	})
	if err != nil {
		return fmt.Errorf("shard recovery failed: %w", err)
	}
	defer r.Close()
	epoch := r.EpochVN()
	snap, ok := st.snapshots[epoch]
	if !ok {
		return fmt.Errorf("recovered epoch %d is not any pre-crash publish point (acked %d)", epoch, st.acked)
	}
	if epoch < st.acked {
		return fmt.Errorf("recovered epoch %d lost acknowledged publish %d", epoch, st.acked)
	}
	// All-or-nothing: every shard exactly at the epoch, structurally sound.
	if err := r.CheckInvariants(); err != nil {
		return fmt.Errorf("post-recovery invariants: %w", err)
	}
	sess, err := r.BeginSession()
	if err != nil {
		return fmt.Errorf("post-recovery session: %w", err)
	}
	defer sess.Close()
	for table, want := range snap {
		if !r.HasTable(table) {
			if len(want) == 0 {
				continue // the create record was not yet durable
			}
			return fmt.Errorf("table %s with %d oracle rows missing after recovery", table, len(want))
		}
		got := map[int64]string{}
		if scanErr := sess.Scan(table, func(b catalog.Tuple) bool {
			got[b[0].Int()] = b.String()
			return true
		}); scanErr != nil {
			return fmt.Errorf("post-recovery scan of %s: %w", table, scanErr)
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s at epoch %d: recovered %d rows, oracle has %d", table, epoch, len(got), len(want))
		}
		for k, t := range want {
			if got[k] != t.String() {
				return fmt.Errorf("%s key %d at epoch %d: recovered %q, oracle %q", table, k, epoch, got[k], t.String())
			}
		}
	}
	// The recovered router must accept and publish new work.
	if !r.HasTable("dim") {
		if err := r.CreateTable(dimSchema()); err != nil {
			return fmt.Errorf("post-recovery create: %w", err)
		}
	}
	vn, _, err := r.ApplyBatch([]core.Delta{
		{Table: "dim", Op: core.DeltaInsert, Row: dimRow(9999, 1, "probe")},
	})
	if err != nil {
		return fmt.Errorf("post-recovery publish: %w", err)
	}
	if vn != epoch+1 {
		return fmt.Errorf("post-recovery publish moved epoch to %d, want %d", vn, epoch+1)
	}
	return nil
}
