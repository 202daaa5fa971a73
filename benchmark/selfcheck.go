package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile mirrors BENCHMARK.json key for key, in order, so that
// -write-bounds rewrites it without losing anything.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// maxBound is the largest bound the acceptance check allows.
const maxBound = 0.25

func benchmarkJSONPath() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "BENCHMARK.json"
	}
	return "../BENCHMARK.json"
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worse is by how much of a, as a share, b is worse than a.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runChild runs this binary once, as the acceptance driver would — a fresh
// process, because a run inherits the heap the runs before it grew, and the
// scan workload reads 7 % slower in a process that has already run it — and
// parses the metric lines of its report.
func runChild(o options, w *workload, seed int64) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	report, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", w.name, seed, err, report)
	}
	got := make(map[string]float64)
	for _, line := range strings.Split(string(report), "\n") {
		var (
			name, unit string
			v          float64
			n          int
		)
		if _, err := fmt.Sscanf(line, "%s %f %s n=%d", &name, &v, &unit, &n); err == nil {
			got[name] = v
		}
	}
	return got, nil
}

// selfcheck is the acceptance check run at home: two sets of o.runs runs of
// this binary per workload, each run with another seed. Per bounded metric
// it prints both medians and both quartile spreads, and fails when the
// second median is worse than the first by more than the bound or a spread
// exceeds it (set-up time is exempt from the spread rule, as it is there).
func selfcheck(o options, ws []*workload, out io.Writer) error {
	path := benchmarkJSONPath()
	file, err := readBenchmarkFile(path)
	if err != nil {
		return err
	}
	widest := make(map[string]float64)
	failed := false
	for _, w := range ws {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < o.runs; i++ {
				got, err := runChild(o, w, o.seed+int64(i))
				if err != nil {
					return err
				}
				for name, v := range got {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		fmt.Fprintf(out, "%s: %d runs per set\n  %-28s %14s %14s %8s %8s %8s %6s\n",
			w.name, o.runs, "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound")
		// The write-side metrics are not in the file; their bounds are the
		// code's.
		for _, d := range w.endToEndDefs(file.EndToEnd) {
			a, b := sets[0][d.Name], sets[1][d.Name]
			shift := worse(d, median(a), median(b))
			spread := math.Max(quartileSpread(a), quartileSpread(b))
			verdict := ""
			if shift > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
				verdict, failed = "  FAIL", true
			}
			if d.Name != "setup_s" {
				widest[d.Name] = math.Max(widest[d.Name], spread)
			}
			fmt.Fprintf(out, "  %-28s %14.4f %14.4f %7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n", d.Name, median(a), median(b),
				100*shift, 100*quartileSpread(a), 100*quartileSpread(b), 100*d.Bound, verdict)
		}
	}
	if o.writeBounds {
		// A bound is at least three times the widest spread seen, never
		// below the starting value in the tables of metrics.go.
		for i, d := range file.EndToEnd {
			b := math.Max(endToEnd[i].Bound, math.Ceil(300*widest[d.Name])/100)
			if b > maxBound {
				fmt.Fprintf(out, "%s: spread %.1f%% needs a bound above %.0f%%; the metric is not steady enough\n", d.Name, 100*widest[d.Name], 100*maxBound)
				b, failed = maxBound, true
			}
			file.EndToEnd[i].Bound = b
		}
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "bounds written to %s\n", path)
	}
	if failed {
		return fmt.Errorf("selfcheck: medians or spreads outside the bounds")
	}
	return nil
}
