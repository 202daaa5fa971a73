// Command vnlcrash runs the deterministic crash & fault-injection sweep
// from internal/crashtest outside the test harness: a scripted 2VNL
// maintenance workload is crashed before every persisting I/O boundary
// (WAL append, fsync, checkpoint create/rename), recovered,
// and checked against the scan oracle and the store's structural
// invariants.
//
// Usage:
//
//	vnlcrash                     # fixed-seed sweep
//	vnlcrash -seed 42 -n 3       # different workload tail, 3VNL
//	vnlcrash -faults 5           # add 5 random-fault sweeps and an exhausted-retry sweep
//	vnlcrash -script plan.txt    # replay a recorded fault script
//	vnlcrash -artifact fail.txt  # write the failing script here on error
//	vnlcrash -replica            # sweep the replica's replay path instead
//	vnlcrash -shards 4           # sweep the shard router's two-phase publish
//
// With -replica the sweep targets a WAL-shipping follower: the primary
// workload runs to completion on clean hardware, then a fresh replica is
// crashed at every persisting I/O boundary of its catch-up, power-cut,
// re-opened, and driven to full differential parity with the primary.
//
// With -shards the sweep targets the hash-sharded store: the workload
// publishes every epoch through the router's two-phase prepare/flip, and
// each crash point must recover all shards to one all-or-nothing epoch
// matching the oracle.
//
// With -faults, the random rounds are followed by one exhausted-retry
// round: a WAL fsync fails on every retry attempt, so the fault surfaces
// and stops the workload. A random fault rarely does, because the bounded
// retry absorbs a single failing op, so that round must report at least one
// fault stop or the run fails.
//
// Exit status 0 means every crash point recovered cleanly; 1 means an
// invariant was violated or the exhausted-retry round reached no surfaced
// fault (the exact fault script is printed and, with -artifact, saved for
// replay); 2 means a usage error.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/crashtest"
	"repro/internal/vfs"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "workload seed (tail transactions)")
		n        = flag.Int("n", 2, "version count (2 = 2VNL)")
		faults   = flag.Int("faults", 0, "extra sweeps under random fault scripts")
		faultSrc = flag.Int64("faultseed", 7, "seed for the random fault scripts")
		script   = flag.String("script", "", "fault script file to replay (see internal/vfs ParseScript)")
		artifact = flag.String("artifact", "", "write the failing fault script to this file")
		replica  = flag.Bool("replica", false, "sweep a WAL-shipping replica's replay path instead of the primary")
		shards   = flag.Int("shards", 0, "sweep a hash-sharded router of this width instead of a single store")
	)
	flag.Parse()

	cfg := crashtest.Config{Seed: *seed, N: *n, Shards: *shards}
	if *shards > 0 {
		if *script != "" || *faults > 0 || *replica {
			fmt.Fprintln(os.Stderr, "vnlcrash: -shards injects its own crash points; -script, -faults, and -replica do not combine with it")
			os.Exit(2)
		}
		srep, err := crashtest.ShardSweep(cfg)
		report("shard sweep", srep, err, *artifact)
		fmt.Printf("vnlcrash: shards %d seed %d: %d crash points over %d persisting ops, %d publishes\n",
			*shards, *seed, srep.Points, srep.PersistOps, srep.Commits)
		return
	}
	if *replica {
		if *script != "" || *faults > 0 {
			fmt.Fprintln(os.Stderr, "vnlcrash: -replica injects its own crash points; -script and -faults apply only to the primary sweep")
			os.Exit(2)
		}
		rrep, err := crashtest.ReplicaSweep(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnlcrash: replica sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("vnlcrash: replica seed %d: %d crash points over %d persisting ops, %d primary commits, final VN %d\n",
			*seed, rrep.Points, rrep.PersistOps, rrep.Commits, rrep.FinalVN)
		return
	}
	if *script != "" {
		text, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnlcrash: %v\n", err)
			os.Exit(2)
		}
		parsed, err := vfs.ParseScript(string(text))
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnlcrash: parsing %s: %v\n", *script, err)
			os.Exit(2)
		}
		cfg.Script = parsed
	}

	rep, err := crashtest.Sweep(cfg)
	report("sweep", rep, err, *artifact)
	fmt.Printf("vnlcrash: seed %d: %d crash points, %d commits, %d fault stops\n",
		*seed, rep.Points, rep.Commits, rep.FaultStops)

	if *faults > 0 {
		rng := rand.New(rand.NewSource(*faultSrc))
		for round := 0; round < *faults; round++ {
			fcfg := cfg
			fcfg.Script = vfs.RandomScript(rng.Int63(), rep.PersistOps)
			frep, ferr := crashtest.Sweep(fcfg)
			report(fmt.Sprintf("fault round %d", round), frep, ferr, *artifact)
			fmt.Printf("vnlcrash: fault round %d: %d crash points, %d fault stops\n",
				round, frep.Points, frep.FaultStops)
		}
		exhausted, err := crashtest.ExhaustedSyncScript(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnlcrash: %v\n", err)
			os.Exit(1)
		}
		xcfg := cfg
		xcfg.Script = exhausted
		xrep, xerr := crashtest.Sweep(xcfg)
		report("exhausted-retry round", xrep, xerr, *artifact)
		fmt.Printf("vnlcrash: exhausted-retry round: %d crash points, %d fault stops\n",
			xrep.Points, xrep.FaultStops)
		if xrep.FaultStops < 1 {
			fmt.Fprintf(os.Stderr, "vnlcrash: exhausted-retry round stopped on no surfaced fault under\n%s\n", xcfg.Script)
			os.Exit(1)
		}
	}
}

// report prints a sweep failure (and saves its fault script) and exits 1.
// A nil error is a no-op.
func report(stage string, rep crashtest.Report, err error, artifact string) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "vnlcrash: %s: %v\n", stage, err)
	if rep.FailScript != "" {
		fmt.Fprintf(os.Stderr, "vnlcrash: failing fault script:\n%s\n", rep.FailScript)
		if artifact != "" {
			if werr := os.WriteFile(artifact, []byte(rep.FailScript+"\n"), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "vnlcrash: writing artifact: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "vnlcrash: script saved to %s (replay with -script)\n", artifact)
			}
		}
	}
	os.Exit(1)
}
