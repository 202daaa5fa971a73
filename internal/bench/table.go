// Package bench is the experiment harness: it regenerates every table and
// figure of the paper (T1–T4, F1–F7) from the running implementation and
// runs the quantitative experiments (E1–E10) that measure the paper's
// claims — storage overhead, blocking, extra I/O, expiration bounds,
// rewrite cost, maintenance-window capacity, and GC/rollback. The cmd/
// vnlbench binary is a thin CLI over this package, and bench_test.go at the
// repository root exposes the experiments as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment artifact: a titled grid plus free-form notes
// (e.g. the paper's reported values for EXPERIMENTS.md comparison).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Pre is preformatted content (timelines, SQL) rendered before the
	// grid.
	Pre string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Pre != "" {
		fmt.Fprintln(w, t.Pre)
	}
	if len(t.Columns) > 0 {
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					fmt.Fprint(w, "  ")
				}
				fmt.Fprintf(w, "%-*s", widths[i], c)
			}
			fmt.Fprintln(w)
		}
		line(t.Columns)
		seps := make([]string, len(t.Columns))
		for i := range seps {
			seps[i] = strings.Repeat("-", widths[i])
		}
		line(seps)
		for _, row := range t.Rows {
			line(row)
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

// Config tunes experiment scale; the zero value selects defaults suitable
// for interactive runs.
type Config struct {
	// Seed drives all synthetic workloads.
	Seed int64
	// Rows is the base relation size for I/O and latency experiments.
	Rows int
	// Readers is the concurrent reader count for the blocking experiment.
	Readers int
	// Batches is the number of maintenance batches to run.
	Batches int
	// Quick shrinks everything for tests.
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rows == 0 {
		c.Rows = 20000
	}
	if c.Readers == 0 {
		c.Readers = 8
	}
	if c.Batches == 0 {
		c.Batches = 10
	}
	if c.Quick {
		c.Rows = 2000
		c.Readers = 4
		c.Batches = 3
	}
	return c
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Reader decision table (Table 1)", RunT1},
		{"T2", "Insert maintenance decision table (Table 2)", RunT2},
		{"T3", "Update maintenance decision table (Table 3)", RunT3},
		{"T4", "Delete maintenance decision table (Table 4)", RunT4},
		{"F1", "Nightly-batch operation (Figure 1)", RunF1},
		{"F2", "2VNL on-line operation (Figure 2)", RunF2},
		{"F3", "Extended DailySales schema and storage overhead (Figure 3)", RunF3},
		{"F4", "Extended relation example and reader view (Figure 4 / Example 3.2)", RunF4},
		{"F5", "Example maintenance transaction (Figure 5)", RunF5},
		{"F6", "Relation after maintenance (Figure 6)", RunF6},
		{"F7", "4VNL tuple and visibility (Figure 7 / Example 5.1)", RunF7},
		{"E1", "Storage overhead: 2VNL/nVNL vs MV2PL version pool", RunE1},
		{"E2", "Blocking: reader latency and writer commit delay by scheme", RunE2},
		{"E3", "Extra I/O per operation by scheme", RunE3},
		{"E4", "nVNL never-expire bound: formula vs measured", RunE4},
		{"E5", "Session expiration rate by policy", RunE5},
		{"E6", "Query-rewrite overhead", RunE6},
		{"E7", "Maintenance-window capacity: nightly vs 2VNL", RunE7},
		{"E8", "Garbage collection and rollback", RunE8},
		{"E9", "Indexing under 2VNL (§4.3)", RunE9},
		{"E10", "WAL volume and recovery: redo-only vs full-images (§7)", RunE10},
		{"E11", "Expiration detection ablation: global check vs per-tuple probe (§3.2)", RunE11},
	}
}

// Find returns the experiment with the given ID (case-insensitive).
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
