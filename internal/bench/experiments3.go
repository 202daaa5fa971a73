package bench

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/workload"
)

// e9Queries are the two point queries §4.3 distinguishes: one selecting on
// a group-by (non-updatable) attribute, one on the updatable aggregate.
const (
	e9CityQuery  = `SELECT city, total_sales FROM DailySales WHERE city = 'San Jose'`
	e9TotalQuery = `SELECT city, total_sales FROM DailySales WHERE total_sales = 250`
)

// e9Facts deterministically generates cfg.Rows distinct summary tuples.
func e9Facts(cfg Config) []catalog4 {
	gen := workload.New(cfg.Seed)
	seen := make(map[string]bool)
	var out []catalog4
	day := 0
	for len(out) < cfg.Rows {
		f := gen.Fact()
		key := fmt.Sprintf("%s|%s|%s|%d", f.City, f.State, f.ProductLine, day)
		if seen[key] {
			gen.NextDay()
			day++
			continue
		}
		seen[key] = true
		out = append(out, catalog4{f.City, f.State, f.ProductLine, day, f.Amount})
		if len(out)%7 == 0 {
			gen.NextDay()
			day++
		}
	}
	return out
}

type catalog4 struct {
	city, state, line string
	day               int
	amount            int64
}

// RunE9 demonstrates §4.3: an index on a group-by attribute serves versioned
// reads, while an index on an updatable attribute cannot. Under the §4.1
// rewrite every reference to total_sales is a CASE over its versions, which
// no access path matches. The compiled plan reads total_sales at each tuple's
// version slot instead, and it still refuses by_total: the index holds
// current values, so a session older than an update would miss every tuple
// whose value it sees has since changed. by_total's query is a full scan
// either way.
func RunE9(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	facts := e9Facts(cfg)
	const ddl = `CREATE TABLE DailySales (
		city VARCHAR(20), state VARCHAR(2), product_line VARCHAR(12), date DATE,
		total_sales INT(4) UPDATABLE, UNIQUE KEY(city, state, product_line, date))`

	t := &Table{ID: "E9", Title: fmt.Sprintf("Indexing under 2VNL (§4.3): point queries over %d tuples (512B pages)", len(facts)),
		Columns: []string{"table", "predicate column", "page reads", "latency", "access path"}}

	addRows := func(name string, q func(string) (*exec.Rows, error), eng *db.Database, tbl *db.Table, updatableDefeated bool) error {
		if err := tbl.CreateIndex("by_city", "hash", "city"); err != nil {
			return err
		}
		if err := tbl.CreateIndex("by_total", "hash", "total_sales"); err != nil {
			return err
		}
		measure := func(query string) (int64, time.Duration, error) {
			if _, err := q(query); err != nil { // warm-up
				return 0, 0, err
			}
			before := eng.Pool().Stats()
			start := time.Now()
			if _, err := q(query); err != nil {
				return 0, 0, err
			}
			lat := time.Since(start)
			reads := eng.Pool().Stats().Sub(before).Hits + eng.Pool().Stats().Sub(before).Misses
			return reads, lat, nil
		}
		cityReads, cityLat, err := measure(e9CityQuery)
		if err != nil {
			return err
		}
		totalReads, totalLat, err := measure(e9TotalQuery)
		if err != nil {
			return err
		}
		cityPath, totalPath := "index (by_city)", "index (by_total)"
		if updatableDefeated {
			totalPath = "full scan — by_total holds current values only"
		}
		t.AddRow(name, "city (group-by)", cityReads, cityLat.Round(time.Microsecond).String(), cityPath)
		t.AddRow(name, "total_sales (updatable)", totalReads, totalLat.Round(time.Microsecond).String(), totalPath)
		return nil
	}

	// Plain table.
	plain := db.Open(db.Options{PageSize: 512, PoolPages: 1 << 20})
	if _, err := plain.Exec(ddl, nil); err != nil {
		return nil, err
	}
	ptbl, _ := plain.TableOf("DailySales")
	for _, f := range facts {
		if _, err := ptbl.Insert(sales(f.city, f.state, f.line, dayDate(f.day), f.amount)); err != nil {
			return nil, err
		}
	}
	if err := addRows("plain", func(q string) (*exec.Rows, error) { return plain.Query(q, nil) },
		plain, ptbl, false); err != nil {
		return nil, err
	}

	// 2VNL table with identical data, queried through a session.
	veng := db.Open(db.Options{PageSize: 512, PoolPages: 1 << 20})
	store, err := core.Open(veng, core.Options{})
	if err != nil {
		return nil, err
	}
	vt, err := store.CreateTableSQL(ddl)
	if err != nil {
		return nil, err
	}
	m, err := store.BeginMaintenance()
	if err != nil {
		return nil, err
	}
	for _, f := range facts {
		if err := m.Insert("DailySales", sales(f.city, f.state, f.line, dayDate(f.day), f.amount)); err != nil {
			return nil, err
		}
	}
	if err := m.Commit(); err != nil {
		return nil, err
	}
	sess := store.BeginSession()
	defer sess.Close()
	if err := addRows("2VNL", func(q string) (*exec.Rows, error) { return sess.Query(q, nil) },
		veng, vt.Storage(), true); err != nil {
		return nil, err
	}

	// Correctness guard: both paths return the same answers.
	pr, err := plain.Query(e9CityQuery, nil)
	if err != nil {
		return nil, err
	}
	vr, err := sess.Query(e9CityQuery, nil)
	if err != nil {
		return nil, err
	}
	if pr.Len() != vr.Len() {
		return nil, fmt.Errorf("bench: E9 result divergence: %d vs %d rows", pr.Len(), vr.Len())
	}
	t.Notes = append(t.Notes,
		"paper §4.3: indexes on group-by attributes are unaffected by 2VNL; updatable attributes appear",
		"only inside CASE expressions after the rewrite, which no access path can serve",
		"page reads = buffer accesses during one execution (identical data, identical queries)")
	return []*Table{t}, nil
}

// dayDate renders a day offset from 1996-10-01 in MM/DD/YY.
func dayDate(day int) string {
	return catalog.NewDate(mustDate("10/01/96").Days() + int64(day)).String()
}
