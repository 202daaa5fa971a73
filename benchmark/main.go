// Command benchmark is the repository's one end-to-end benchmark. It hosts
// the system in-process exactly as cmd/vnlserver wires it, drives it over
// loopback TCP through pkg/vnlclient with at most two closed-loop
// connections, checks every answer, and reports the end-to-end metrics
// (tracing off) and the per-layer metrics (a traced window plus a
// single-goroutine ladder) that BENCHMARK.json names. See README.md.
//
//	benchmark -seed 1                                            every workload, both windows
//	benchmark -workload scan -seed 1 -seconds 20 -trace 0        one contract run (end-to-end)
//	benchmark -workload scan -seed 1 -seconds 20 -trace 1        one contract run (per-layer)
//	benchmark -selfcheck -runs 10                                repeatability of the bounded metrics
//	benchmark -smoke                                             every path in about ten seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// maxProcs pins the scheduler to the two cores the reference container has,
// so a wider machine measures the same contention.
const maxProcs = 2

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int // 0: end-to-end only, 1: per-layer, -1: both (the report for people)
	smoke       bool
	selfcheck   bool
	runs        int
	writeBounds bool
	outDir      string // traces and scratch data: benchmark/out from the root, out from inside benchmark/
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (scan, point, online, sharded); default all four")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced window, end-to-end metrics; 1: traced window and ladder, per-layer metrics; default both")
	flag.BoolVar(&o.smoke, "smoke", false, "one-second windows over every workload, correctness checks on")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "two sets of -runs runs: medians must agree within each metric's bound")
	flag.IntVar(&o.runs, "runs", 3, "runs per set for -selfcheck, each with another seed")
	flag.BoolVar(&o.writeBounds, "write-bounds", false, "with -selfcheck: write three times the measured spreads into BENCHMARK.json as bounds")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	runtime.GOMAXPROCS(maxProcs)
	if o.outDir == "" {
		o.outDir = "out"
		if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
			o.outDir = "benchmark/out"
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	ws := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []*workload{w}
	}
	fmt.Fprintf(out, "env: commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d n=%d flush=fsync-per-commit closed-loop connections=2\n",
		commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, versions)

	if o.selfcheck {
		return selfcheck(o, ws, out)
	}
	cfg := o.config(o.seed)
	ok := true
	var last *result
	for _, w := range ws {
		res, err := runWorkload(w, cfg, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(out)
		ok = ok && res.correct() && res.failed == 0
		last = res
	}
	if o.workload != "" && o.trace >= 0 {
		// The contract's last line.
		if err := last.printJSON(out, o.trace == 1); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a correctness check or an operation failed")
	}
	return nil
}

// config sizes a run. The contract's --trace 1 run splits its seconds
// between an untraced window (the overhead ratio needs one) and the traced
// one; the report for people traces for a third of the window on top.
func (o options) config(seed int64) runConfig {
	window := time.Duration(o.seconds) * time.Second
	cfg := runConfig{seed: seed, window: window, setups: 3, checkSamples: true, outDir: o.outDir}
	switch {
	case o.smoke:
		cfg.window, cfg.traced, cfg.setups, cfg.checkSamples = time.Second, time.Second, 1, false
	case o.trace == 0:
	case o.trace == 1:
		cfg.window, cfg.traced, cfg.setups, cfg.checkSamples = window/2, window/2, 1, false
	default:
		cfg.traced = window / 3
	}
	cfg.warmup = min(3*time.Second, cfg.window/10)
	return cfg
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "%s: end to end (tracing off): attempted=%d failed=%d failed_ratio=%g correct=%v\n",
		r.w.name, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)), r.correct())
	for _, d := range r.w.endToEndDefs(endToEnd) {
		v := r.e2e[d.Name]
		fmt.Fprintf(out, "  %-28s %14.4f %-6s n=%d\n", d.Name, v.v, d.Unit, v.n)
	}
	for _, v := range r.violations {
		fmt.Fprintf(out, "  VIOLATION: %s\n", v)
	}
	if r.layers == nil {
		return
	}
	fmt.Fprintf(out, "%s: per layer (traced window and ladder)\n", r.w.name)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.Name, r.layers[d.Name], d.Unit)
	}
}

// printJSON writes the one-line result the acceptance driver reads.
func (r *result) printJSON(out io.Writer, layers bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]metric{}}
	if layers {
		for _, d := range perLayer {
			line.Metrics[d.Name] = metric{r.layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = metric{r.e2e[d.Name].v, d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
