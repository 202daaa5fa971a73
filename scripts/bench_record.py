#!/usr/bin/env python3
# Appends one record to BENCH_e2e.json: per workload, the median of each
# end-to-end metric over the given runs. Each file holds the output of one
#     sh benchmark/run.sh --workload W --trace 0
# (its env line, its end-to-end text block and its JSON result line); take at
# least three per workload, alternating with the commit being compared.
#     python3 scripts/bench_record.py <commit> run-*.txt
# Besides the JSON line's metrics, a writer workload (online, sharded) prints
# its write-side figures only as text lines such as
#     "  batch_p50_ms                        32.8380 ms     n=141";
# those are recorded too.
import json, re, statistics, sys

WRITE_SIDE = ("batch_p50_ms", "batch_p90_ms", "deltas_per_s", "wal_bytes_per_user_byte")
TEXT_METRIC = re.compile(r"\s+(%s)\s+(\S+)\s" % "|".join(WRITE_SIDE))

commit, files = sys.argv[1], sys.argv[2:]
runs = {}
for name in files:
    lines = open(name).read().splitlines()
    env = next(l for l in lines if l.startswith("env: "))
    workload = next(m.group(1) for l in lines if (m := re.match(r"(\w+): end to end", l)))
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, name
    metrics = runs.setdefault(workload, {})
    for metric, v in result["metrics"].items():
        metrics.setdefault(metric, []).append(v["value"])
    for l in lines:
        if m := TEXT_METRIC.match(l):
            metrics.setdefault(m.group(1), []).append(float(m.group(2)))
record = {
    "commit": commit,
    "env": re.sub(r"commit=\S+ | seed=\d+", "", env[len("env: "):]),
    "runs_per_workload": min(len(v) for m in runs.values() for v in m.values()),
    "workloads": {w: {k: statistics.median(v) for k, v in sorted(m.items())} for w, m in sorted(runs.items())},
}
try:
    records = json.load(open("BENCH_e2e.json"))
except FileNotFoundError:
    records = []
json.dump(records + [record], open("BENCH_e2e.json", "w"), indent=1)
