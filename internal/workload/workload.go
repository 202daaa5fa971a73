// Package workload generates the synthetic sporting-goods sales feed the
// experiments run on — a deterministic stand-in for the corporate source
// data the paper's warehouse collects (§2). All randomness comes from a
// caller-provided seed, so every experiment is reproducible.
package workload

import (
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/warehouse"
)

// Cities is the store-location universe (city, state).
var Cities = [][2]string{
	{"San Jose", "CA"}, {"Berkeley", "CA"}, {"Novato", "CA"}, {"Fresno", "CA"},
	{"San Diego", "CA"}, {"Sacramento", "CA"}, {"Portland", "OR"}, {"Eugene", "OR"},
	{"Seattle", "WA"}, {"Spokane", "WA"}, {"Tacoma", "WA"}, {"Boise", "ID"},
	{"Reno", "NV"}, {"Las Vegas", "NV"}, {"Phoenix", "AZ"}, {"Tucson", "AZ"},
	{"Denver", "CO"}, {"Boulder", "CO"}, {"Austin", "TX"}, {"Dallas", "TX"},
}

// ProductLines is the product-line universe; each line carries a few
// products.
var ProductLines = map[string][]string{
	"golf equip":   {"driver", "putter", "golf balls", "golf bag"},
	"racquetball":  {"racquet", "rball 3pk", "goggles"},
	"rollerblades": {"blades M", "blades L", "pads"},
	"skis":         {"alpine ski", "nordic ski", "poles"},
	"camping":      {"tent 2p", "tent 4p", "sleeping bag", "stove"},
	"cycling":      {"road bike", "mtb", "helmet", "pump"},
	"running":      {"shoes", "singlet", "watch"},
	"swimming":     {"goggles sw", "suit", "cap"},
}

// lineNames is a stable ordering of ProductLines for deterministic draws.
var lineNames = func() []string {
	names := make([]string, 0, len(ProductLines))
	for _, n := range []string{
		"golf equip", "racquetball", "rollerblades", "skis",
		"camping", "cycling", "running", "swimming",
	} {
		names = append(names, n)
	}
	return names
}()

// Generator produces deterministic fact batches. Sales are skewed: a few
// city × product-line combinations dominate, as real sales data would, so
// summary-table groups receive very different update rates.
type Generator struct {
	rng *rand.Rand
	day int64 // days since 1996-10-01
	// sold tracks previously emitted facts available for retraction.
	sold []warehouse.Fact
	// fresh is the next never-used key DeltaBatch may insert.
	fresh int64
}

// New returns a generator with the given seed, starting at 1996-10-01 (the
// paper's example dates live in October 1996).
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Day returns the current day number of the feed.
func (g *Generator) Day() int64 { return g.day }

// date converts the generator's day counter to a date value.
func (g *Generator) date() catalog.Value {
	base := catalog.DateFromYMD(1996, 10, 1)
	return catalog.NewDate(base.Days() + g.day)
}

// skewIndex draws an index in [0, n) with a heavy head: index 0 is drawn
// about n/2 times more often than index n-1 (a simple discrete Zipf-ish
// distribution that needs no float math).
func (g *Generator) skewIndex(n int) int {
	// Draw from a triangular-ish distribution: min of two uniforms.
	a, b := g.rng.Intn(n), g.rng.Intn(n)
	if b < a {
		return b
	}
	return a
}

// Fact generates one sales fact for the current day.
func (g *Generator) Fact() warehouse.Fact {
	ci := g.skewIndex(len(Cities))
	li := g.skewIndex(len(lineNames))
	line := lineNames[li]
	products := ProductLines[line]
	p := products[g.rng.Intn(len(products))]
	return warehouse.Fact{
		Store:       int64(ci*10 + g.rng.Intn(3)),
		City:        Cities[ci][0],
		State:       Cities[ci][1],
		ProductLine: line,
		Product:     p,
		Date:        g.date(),
		Amount:      int64(10 + g.rng.Intn(490)),
		Quantity:    int64(1 + g.rng.Intn(5)),
	}
}

// Batch produces one maintenance batch: inserts new sales facts and, with
// probability retractRate (0..1 scaled by 100), retracts previously sold
// facts (corrections). Advance the day with NextDay between batches.
func (g *Generator) Batch(inserts int, retractPct int) *warehouse.Batch {
	b := &warehouse.Batch{}
	for i := 0; i < inserts; i++ {
		f := g.Fact()
		b.Inserts = append(b.Inserts, f)
		g.sold = append(g.sold, f)
	}
	if retractPct > 0 && len(g.sold) > 0 {
		retractions := inserts * retractPct / 100
		for i := 0; i < retractions && len(g.sold) > 0; i++ {
			idx := g.rng.Intn(len(g.sold))
			b.Deletes = append(b.Deletes, g.sold[idx])
			g.sold = append(g.sold[:idx], g.sold[idx+1:]...)
		}
	}
	return b
}

// NextDay advances the feed's calendar day.
func (g *Generator) NextDay() { g.day++ }

// Sold returns the full insert history minus retractions — the ground
// truth for warehouse.CheckViews.
func (g *Generator) Sold() []warehouse.Fact {
	return append([]warehouse.Fact(nil), g.sold...)
}

// DeltaBatch generates one batch for the batched maintenance path
// (core.Maintenance.ApplyBatch): updates skewed onto hot keys in [0, live),
// deletes over the same range, and inserts of fresh never-used keys, shuffled
// into one submission sequence. The batch is legal in any interleaving the
// generator emits: inserts only ever name fresh keys (tracked across calls),
// and updates or deletes of keys another batch already removed are legal
// skips. Hot-key repetition gives the same-key multi-touch the Tables 2–4
// second rows fold.
func (g *Generator) DeltaBatch(table string, live, updates, inserts, deletes int) []core.Delta {
	if g.fresh < int64(live) {
		g.fresh = int64(live)
	}
	deltas := make([]core.Delta, 0, updates+inserts+deletes)
	kv := func(k, v int64) catalog.Tuple {
		return catalog.Tuple{catalog.NewInt(k), catalog.NewInt(v)}
	}
	for i := 0; i < updates; i++ {
		k := int64(g.skewIndex(live))
		deltas = append(deltas, core.Delta{Table: table, Op: core.DeltaUpdate,
			Row: kv(k, int64(g.rng.Intn(100000))),
			Key: catalog.Tuple{catalog.NewInt(k)}})
	}
	for i := 0; i < deletes; i++ {
		k := int64(g.skewIndex(live))
		deltas = append(deltas, core.Delta{Table: table, Op: core.DeltaDelete,
			Key: catalog.Tuple{catalog.NewInt(k)}})
	}
	for i := 0; i < inserts; i++ {
		k := g.fresh
		g.fresh++
		deltas = append(deltas, core.Delta{Table: table, Op: core.DeltaInsert,
			Row: kv(k, int64(g.rng.Intn(100000)))})
	}
	g.rng.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
	return deltas
}

// KVBatch generates a key-value batch for the mvcc scheme benchmarks:
// updates concentrated on hot keys, plus some inserts and deletes. The
// returned slices are (inserts, updates, deletes) as key/value pairs; keys
// for inserts are fresh, updates and deletes hit the live range [0, live).
func (g *Generator) KVBatch(live, updates, inserts, deletes int) (ins, upd []([2]int64), del []int64) {
	for i := 0; i < updates; i++ {
		k := int64(g.skewIndex(live))
		upd = append(upd, [2]int64{k, int64(g.rng.Intn(100000))})
	}
	for i := 0; i < inserts; i++ {
		ins = append(ins, [2]int64{int64(live + i), int64(g.rng.Intn(100000))})
	}
	seen := map[int64]bool{}
	for i := 0; i < deletes; i++ {
		k := int64(g.skewIndex(live))
		if !seen[k] {
			seen[k] = true
			del = append(del, k)
		}
	}
	return ins, upd, del
}
