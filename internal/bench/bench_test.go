package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestAllExperimentsRun smoke-tests every experiment at quick scale and
// sanity-checks key cells against the paper's reported values.
func TestAllExperimentsRun(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tb := range tables {
				var sb strings.Builder
				tb.Render(&sb)
				if sb.Len() == 0 {
					t.Errorf("%s: empty render", tb.ID)
				}
			}
		})
	}
}

func render(t *testing.T, tables []*Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tb := range tables {
		tb.Render(&sb)
	}
	return sb.String()
}

func TestT1MatchesPaper(t *testing.T) {
	tables, err := RunT1(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	for _, want := range []string{"ignore tuple", "read current attribute values",
		"read pre-update attribute values", "session expired"} {
		if !strings.Contains(out, want) {
			t.Errorf("T1 missing %q:\n%s", want, out)
		}
	}
}

func TestT2T3T4ImpossibleCells(t *testing.T) {
	for _, run := range []func(Config) ([]*Table, error){RunT2, RunT3, RunT4} {
		tables, err := run(Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		out := render(t, tables)
		if !strings.Contains(out, "impossible") {
			t.Errorf("decision table missing impossible cells:\n%s", out)
		}
	}
	// Table 4 must show a physical delete for the same-transaction insert.
	tables, _ := RunT4(Config{Quick: true})
	if out := render(t, tables); !strings.Contains(out, "physical delete") {
		t.Errorf("T4 missing physical delete cell:\n%s", out)
	}
}

func TestF3MatchesPaperNumbers(t *testing.T) {
	tables, err := RunF3(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "base tuple 42 bytes -> extended 51 bytes") {
		t.Errorf("F3 overhead differs from Figure 3:\n%s", out)
	}
}

func TestF4F6MatchPaperRelations(t *testing.T) {
	tables, err := RunF4(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	// Figure 4 rows.
	for _, frag := range []string{"3", "insert", "Berkeley", "12000", "10000", "Novato", "8000"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F4 missing %q:\n%s", frag, out)
		}
	}
	tables, err = RunF6(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out = render(t, tables)
	for _, frag := range []string{"10200", "6000", "11000", "delete"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F6 missing %q:\n%s", frag, out)
		}
	}
}

func TestF7MatchesPaper(t *testing.T) {
	tables, err := RunF7(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	for _, frag := range []string{"10200", "10000", "session expired", "tuple ignored"} {
		if !strings.Contains(out, frag) {
			t.Errorf("F7 missing %q:\n%s", frag, out)
		}
	}
}

func TestE4AllMatch(t *testing.T) {
	tables, err := RunE4(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if strings.Contains(out, "NO (") {
		t.Errorf("E4 has formula mismatches:\n%s", out)
	}
}

func TestE1ShapeHolds(t *testing.T) {
	tables, err := RunE1(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// The analytic table's worst case (8/8 updatable) must approach
	// doubling for 2VNL (§3.1); with the 8-byte key never updatable it
	// lands at 96%.
	a := tables[0]
	first := a.Rows[0]
	last := a.Rows[len(a.Rows)-1]
	var firstPct, lastPct int
	if _, err := fmt.Sscanf(first[3], "%d%%", &firstPct); err != nil {
		t.Fatalf("parse %q: %v", first[3], err)
	}
	if _, err := fmt.Sscanf(last[3], "%d%%", &lastPct); err != nil {
		t.Fatalf("parse %q: %v", last[3], err)
	}
	if lastPct < 90 {
		t.Errorf("worst-case 2VNL overhead = %d%%, want ~100%%", lastPct)
	}
	if firstPct >= lastPct/3 {
		t.Errorf("few-updatable overhead (%d%%) should be far below worst case (%d%%)", firstPct, lastPct)
	}
}

// TestE3E9IOCountsPinned pins the §6 I/O figures at the default config:
// every integer column of E3 and E9's page reads. They are deterministic
// counts from the exact-LRU buffer pool, so any change to replacement or to
// the access paths that feed it shows up here. Latency columns are left out.
func TestE3E9IOCountsPinned(t *testing.T) {
	tables, err := RunE3(Config{})
	if err != nil {
		t.Fatal(err)
	}
	e3 := map[string]string{
		"S2PL":         "63 63 0 625 0 0 320000",
		"2V2PL":        "200 200 0 2000 0 0 500000",
		"MV2PL":        "202 202 2000 1261 2000 0 622597",
		"MV2PL/cache2": "223 223 0 2223 0 2000 1100385",
		"2VNL":         "118 118 0 1177 0 0 580261",
	}
	if rows := tables[0].Rows; len(rows) != len(e3) {
		t.Errorf("E3 has %d rows, want %d", len(rows), len(e3))
	}
	for _, row := range tables[0].Rows {
		if got := strings.Join(row[1:], " "); got != e3[row[0]] {
			t.Errorf("E3 %s: got %q, want %q", row[0], got, e3[row[0]])
		}
	}

	tables, err = RunE9(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var reads []string
	for _, row := range tables[0].Rows {
		reads = append(reads, row[2])
	}
	if got, want := strings.Join(reads, " "), "1895 41 1895 2000"; got != want {
		t.Errorf("E9 page reads: got %q, want %q", got, want)
	}
}

func TestFindAndAll(t *testing.T) {
	if len(All()) != 22 {
		t.Errorf("experiment count = %d", len(All()))
	}
	if _, ok := Find("e3"); !ok {
		t.Error("case-insensitive Find failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted junk")
	}
}
