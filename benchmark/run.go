package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// value is one reported figure with the number of samples behind it.
type value struct {
	v float64
	n int
}

// result is one run of one workload.
type result struct {
	w          *workload
	e2e        map[string]value   // endToEnd and, for a workload with a writer, writeSide
	layers     map[string]float64 // nil without a traced window
	attempted  int
	failed     int
	violations []string // correctness: empty means every check passed
}

func (r *result) correct() bool { return len(r.violations) == 0 }

// runWorkload runs one workload start to finish: set-up (timed several
// times), warm-up, the untraced window that gives the end-to-end metrics,
// the allocation probe, then — with cfg.traced — the traced window and the
// ladder, and last the correctness checks, including a reopen of what the
// durable topologies left on disk.
func runWorkload(w *workload, cfg runConfig, out io.Writer) (*result, error) {
	var (
		e      *env
		setups []float64
	)
	// Set-up is timed cfg.setups times at least, and on for a second at
	// most nine times: a small table loads in a tenth of a second, and three
	// samples of that are mostly scheduling noise.
	began := time.Now()
	for i := 0; i < cfg.setups || (cfg.setups > 1 && i < 9 && time.Since(began) < time.Second); i++ {
		if e != nil {
			if err := e.tearDown(); err != nil {
				return nil, err
			}
		}
		var (
			d   time.Duration
			err error
		)
		if e, d, err = setUp(w, cfg, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	res, err := e.measure(out, setups)
	return res, errors.Join(err, e.tearDown())
}

func (e *env) measure(out io.Writer, setups []float64) (*result, error) {
	w, cfg := e.w, e.cfg
	heap, live, pages, err := e.h.storageBytes()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s: fact holds %d rows in %d pages, %.1f MB versioned (n=%d) for %.1f MB of base tuples; pool is %d pages per store\n",
		w.name, w.rows, pages, float64(heap)/1e6, versions, float64(live)/1e6, e.h.stores()[0].DB().Pool().Capacity())

	if _, err := e.runPhase(cfg.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	untraced, err := e.runPhase(cfg.window)
	if err != nil {
		return nil, err
	}
	mallocs, allocBytes, probed, err := e.allocProbe()
	if err != nil {
		return nil, err
	}
	res := &result{w: w, attempted: untraced.attempts, failed: untraced.failed}

	if cfg.traced > 0 {
		// Room for twice the untraced window's rate.
		opsPerSec := float64(untraced.attempts+untraced.sessions) / untraced.elapsed.Seconds()
		e.tr.start(int(2 * spansPerOp * opsPerSec * cfg.traced.Seconds()))
		traced, err := e.runPhase(cfg.traced)
		e.tr.stop()
		if err != nil {
			return nil, err
		}
		res.attempted += traced.attempts
		res.failed += traced.failed
		spans, dropped := e.tr.spans()
		res.layers = layerMetrics(untraced, traced, spans)
		// A rung gets a fiftieth of the traced window: 0.2 s of a 10 s one.
		if err := e.ladder(res.layers, cfg.traced/50); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := writeTrace(path, spans, dropped); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%s: %d spans recorded (%d dropped), first %d written to %s\n",
			w.name, len(spans), dropped, min(len(spans), traceFileSpans), path)
	}

	// The storage figure is taken after a final GC, as the steady state
	// between maintenance windows would show it.
	if _, err := e.h.gc(); err != nil {
		return nil, err
	}
	if heap, live, _, err = e.h.storageBytes(); err != nil {
		return nil, err
	}

	reads := sortedCopy(untraced.readUS)
	res.e2e = map[string]value{
		"setup_s":                   {median(setups), len(setups)},
		"read_p50_us":               {percentile(reads, 50), len(reads)},
		"read_p90_us":               {percentile(reads, tailPercentile), len(reads)},
		"reads_per_s":               {float64(len(reads)) / untraced.elapsed.Seconds(), len(reads)},
		"mallocs_per_read":          {mallocs, probed},
		"alloc_bytes_per_read":      {allocBytes, probed},
		"store_bytes_per_user_byte": {ratio(float64(heap), float64(live)), 1},
	}
	series := map[string]int{"reader queries": len(reads)}
	if w.writer {
		batches := sortedCopy(untraced.batchMS)
		res.e2e["batch_p50_ms"] = value{percentile(batches, 50), len(batches)}
		res.e2e["batch_p90_ms"] = value{percentile(batches, tailPercentile), len(batches)}
		res.e2e["deltas_per_s"] = value{float64(untraced.deltas) / untraced.elapsed.Seconds(), len(batches)}
		res.e2e["wal_bytes_per_user_byte"] = value{ratio(float64(untraced.fs.bytes), float64(untraced.userB)), len(batches)}
		series["batches"] = len(batches)
	}
	if tail := supportedTail(len(reads)); tail > tailPercentile {
		fmt.Fprintf(out, "%s: %d reader queries also support p%g = %.1f us\n", w.name, len(reads), tail, percentile(reads, tail))
	}
	fmt.Fprintf(out, "%s: %d sessions in the window, %d ended by expiry (each costs one refused query; not failures)\n",
		w.name, untraced.sessions, untraced.expired)

	// Correctness. The paper's guarantee: every answer equals the state as
	// of its session's VN.
	res.violations = e.violations
	for _, ob := range e.observed {
		if err := e.or.verify(ob); err != nil {
			res.violations = append(res.violations, err.Error())
			break
		}
	}
	for name, n := range series {
		if n < minSamples && cfg.checkSamples {
			res.violations = append(res.violations, fmt.Sprintf("%d %s in the window: p%d needs %d", n, name, tailPercentile, minSamples))
		}
	}
	if w.durable {
		if err := e.checkRecovery(); err != nil {
			res.violations = append(res.violations, err.Error())
		}
	}
	return res, nil
}

// checkRecovery closes the system, reopens its directory and requires the
// state at the last acknowledged VN: every row, by digest.
func (e *env) checkRecovery() error {
	if err := errors.Join(e.closeClients(), e.h.close()); err != nil {
		return fmt.Errorf("closing before recovery: %w", err)
	}
	vn, got, err := recoveredState(e.w, e.h.dir)
	if err != nil {
		return err
	}
	lastVN, want := e.or.last()
	if vn != lastVN {
		return fmt.Errorf("recovered at VN %d, last acknowledged VN %d", vn, lastVN)
	}
	if got != *want {
		return fmt.Errorf("recovered state at VN %d differs from the oracle", vn)
	}
	return nil
}
