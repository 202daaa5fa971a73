package main

import (
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/pkg/vnlclient"
)

// digest folds a set of fact rows so that two sets can be compared without
// keeping either: every field is a commutative, invertible sum, so the
// oracle maintains it in O(1) per delta.
type digest struct {
	Count, SumID, SumQty, SumAmount int64
	Hash                            uint64
}

func (d *digest) fold(id, qty, amount, sign int64) {
	d.Count += sign
	d.SumID += sign * id
	d.SumQty += sign * qty
	d.SumAmount += sign * amount
	// XOR is its own inverse, so insert and remove are the same fold.
	d.Hash ^= mix(mix(uint64(id)) ^ uint64(qty)<<20 ^ uint64(amount))
}

// groupDigests is the database state the readers can observe: one digest
// per grp value.
type groupDigests [groups]digest

type rowVal struct{ qty, amount int64 }

// oracle is the client-side model: it replays every acknowledged batch and
// keeps the group digests of every version a session may still be pinned
// at. The paper's guarantee is checked against it — a session's answers
// must equal the state as of its sessionVN.
type oracle struct {
	mu     sync.Mutex
	rows   map[int64]rowVal
	cur    groupDigests
	byVN   map[uint64]*groupDigests
	lastVN uint64
}

func newOracle(rows int) *oracle {
	return &oracle{rows: make(map[int64]rowVal, rows), byVN: make(map[uint64]*groupDigests)}
}

// apply replays one acknowledged batch and records the state at vn.
func (o *oracle) apply(deltas []vnlclient.Delta, vn uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.lastVN != 0 && vn != o.lastVN+1 {
		return fmt.Errorf("oracle: batch acknowledged at VN %d after VN %d", vn, o.lastVN)
	}
	for _, d := range deltas {
		switch d.Op {
		case vnlclient.DeltaInsert, vnlclient.DeltaUpdate:
			id, qty, amount := d.Row[0].Int(), d.Row[2].Int(), d.Row[3].Int()
			old, live := o.rows[id]
			if live != (d.Op == vnlclient.DeltaUpdate) {
				return fmt.Errorf("oracle: %v of id %d, live=%v", d.Op, id, live)
			}
			if live {
				o.cur[id%groups].fold(id, old.qty, old.amount, -1)
			}
			o.cur[id%groups].fold(id, qty, amount, +1)
			o.rows[id] = rowVal{qty, amount}
		case vnlclient.DeltaDelete:
			id := d.Key[0].Int()
			old, live := o.rows[id]
			if !live {
				return fmt.Errorf("oracle: delete of absent id %d", id)
			}
			o.cur[id%groups].fold(id, old.qty, old.amount, -1)
			delete(o.rows, id)
		}
	}
	snap := o.cur
	o.byVN[vn] = &snap
	o.lastVN = vn
	return nil
}

func (o *oracle) at(vn uint64) (*groupDigests, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.byVN[vn]
	return g, ok
}

func (o *oracle) last() (uint64, *groupDigests) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastVN, o.byVN[o.lastVN]
}

// observation is what one reader query saw, kept until the run ends: the
// writer may acknowledge a version after a session is already reading it,
// so answers are checked once the oracle has caught up.
type observation struct {
	vn  uint64
	grp int64    // scan: the group asked for; aggregate: -1
	got []digest // scan: one digest of the row set; aggregate: Count and SumAmount per group
}

// observeScan folds the rows of `SELECT id, qty, amount … WHERE grp = :g`.
func observeScan(vn uint64, grp int64, tuples []catalog.Tuple) observation {
	var d digest
	for _, t := range tuples {
		d.fold(t[0].Int(), t[1].Int(), t[2].Int(), +1)
	}
	return observation{vn: vn, grp: grp, got: []digest{d}}
}

// observeAgg keeps the rows of `SELECT grp, COUNT(*), SUM(amount) … GROUP BY grp`.
func observeAgg(vn uint64, tuples []catalog.Tuple) (observation, error) {
	got := make([]digest, groups)
	for _, t := range tuples {
		g := t[0].Int()
		if g < 0 || g >= groups || got[g].Count != 0 {
			return observation{}, fmt.Errorf("aggregate returned group %d (again or out of range)", g)
		}
		got[g] = digest{Count: t[1].Int(), SumAmount: t[2].Int()}
	}
	return observation{vn: vn, grp: -1, got: got}, nil
}

// verify checks one observation against the state at its session's VN.
func (o *oracle) verify(ob observation) error {
	want, ok := o.at(ob.vn)
	if !ok {
		return fmt.Errorf("session read VN %d, which no acknowledged batch produced", ob.vn)
	}
	if ob.grp >= 0 {
		if ob.got[0] != want[ob.grp] {
			return fmt.Errorf("scan of grp %d at VN %d: got %+v, oracle %+v", ob.grp, ob.vn, ob.got[0], want[ob.grp])
		}
		return nil
	}
	for g := range want {
		if ob.got[g].Count != want[g].Count || ob.got[g].SumAmount != want[g].SumAmount {
			return fmt.Errorf("aggregate of grp %d at VN %d: got count %d sum %d, oracle count %d sum %d",
				g, ob.vn, ob.got[g].Count, ob.got[g].SumAmount, want[g].Count, want[g].SumAmount)
		}
	}
	return nil
}
