package wal

import (
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/vfs"

	"math/rand"
)

// propState is the part of a property run that must survive a crash panic:
// the oracle history and the highest version whose Commit returned nil.
type propState struct {
	// history[vn] is the full logical kv state as of version vn. Entries
	// are recorded BEFORE Commit: the commit record can be durable even
	// when Commit itself crashes, so every attempted version is a legal
	// recovery target.
	history map[core.VN]map[int64]int64
	acked   core.VN
}

// propWorkload drives a seeded random maintenance history against a
// journaled store on fs, recording the oracle into st as it goes. It
// mutates st through the pointer so the oracle survives a mid-run crash
// unwind.
func propWorkload(fs *vfs.FaultFS, seed int64, st *propState) error {
	st.history[1] = map[int64]int64{} // version 1: empty store, pre-first-commit
	st.acked = 1
	rng := rand.New(rand.NewSource(seed))
	engine := db.Open(db.Options{PoolPages: 2, PageSize: 256})
	store, err := core.Open(engine, core.Options{})
	if err != nil {
		return err
	}
	log, err := CreateFS(fs, "wal.log", PolicyRedoOnly)
	if err != nil {
		return err
	}
	store.SetJournal(log)
	if _, err := store.CreateTable(kvSchema()); err != nil {
		return err
	}

	state := map[int64]int64{}
	const keys = 10
	numTxns := 3 + rng.Intn(5)
	for txn := 0; txn < numTxns; txn++ {
		m, err := store.BeginMaintenance()
		if err != nil {
			return err
		}
		pend := make(map[int64]int64, len(state))
		for k, v := range state {
			pend[k] = v
		}
		ops := 1 + rng.Intn(6)
		for i := 0; i < ops; i++ {
			k := int64(rng.Intn(keys))
			_, live := pend[k]
			switch {
			case !live:
				v := rng.Int63n(1000)
				if err := m.Insert("kv", kv(k, v)); err != nil {
					return err
				}
				pend[k] = v
			case rng.Intn(2) == 0:
				v := rng.Int63n(1000)
				if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(k)},
					func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(v); return c }); err != nil {
					return err
				}
				pend[k] = v
			default:
				if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(k)}); err != nil {
					return err
				}
				delete(pend, k)
			}
		}
		vn := store.CurrentVN() + 1
		st.history[vn] = pend // before Commit: the record may outlive the crash
		if err := m.Commit(); err != nil {
			return err
		}
		st.acked = vn
		state = pend
	}
	return log.Close()
}

// TestRecoveredScanMatchesOracleProperty is the crash/recover form of PR 3's
// version-reconstruction property: run a seeded random journaled workload,
// cut the power at a random persisting-I/O boundary, recover, and require
// that a fresh session's full scan equals the oracle at exactly the
// recovered version — and that the recovered store passes the watermark and
// slot-chain invariant suite (core.Store.CheckInvariants, the exported form
// of the PR 3 scan-oracle checks).
func TestRecoveredScanMatchesOracleProperty(t *testing.T) {
	f := func(seed int64, atRaw uint8) bool {
		at := 1 + int(atRaw)%80 // crash before persisting op `at`, if reached
		fs := vfs.NewFaultFS(vfs.NewScript().WithCrash(at))
		st := &propState{history: map[core.VN]map[int64]int64{}}
		crash, err := vfs.Recovering(func() error { return propWorkload(fs, seed, st) })
		if crash == nil && err != nil {
			t.Logf("seed %d at %d: workload: %v", seed, at, err)
			return false
		}

		fs.PowerCut()
		fs.SetScript(nil)
		rec, _, _, err := RecoverFS(fs, "wal.log",
			db.Options{PoolPages: 2, PageSize: 256},
			core.Options{})
		if err != nil {
			t.Logf("seed %d at %d: recovery: %v", seed, at, err)
			return false
		}

		recVN := rec.CurrentVN()
		want, ok := st.history[recVN]
		if !ok {
			t.Logf("seed %d at %d: recovered to VN %d, never an attempted version", seed, at, recVN)
			return false
		}
		// Honest hardware: every acknowledged commit survives the cut.
		if recVN < st.acked {
			t.Logf("seed %d at %d: recovered VN %d < acked VN %d", seed, at, recVN, st.acked)
			return false
		}

		// The crash may predate the durable KindCreate: then the table is
		// simply absent, which is consistent only with an empty oracle.
		if _, terr := rec.Table("kv"); terr != nil {
			if len(want) != 0 {
				t.Logf("seed %d at %d: table missing but oracle at VN %d has %d rows", seed, at, recVN, len(want))
				return false
			}
			return rec.CheckInvariants() == nil
		}

		got := map[int64]int64{}
		sess := rec.BeginSession()
		if err := sess.Scan("kv", func(b catalog.Tuple) bool {
			got[b[0].Int()] = b[1].Int()
			return true
		}); err != nil {
			sess.Close()
			t.Logf("seed %d at %d: scan: %v", seed, at, err)
			return false
		}
		sess.Close()
		if len(got) != len(want) {
			t.Logf("seed %d at %d: VN %d scan has %d rows, oracle %d\n%v\n%v",
				seed, at, recVN, len(got), len(want), got, want)
			return false
		}
		for k, v := range want {
			if got[k] != v {
				t.Logf("seed %d at %d: VN %d key %d = %d, oracle %d", seed, at, recVN, k, got[k], v)
				return false
			}
		}

		if err := rec.CheckInvariants(); err != nil {
			t.Logf("seed %d at %d: invariants after recovery: %v", seed, at, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
