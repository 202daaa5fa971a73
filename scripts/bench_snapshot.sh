#!/usr/bin/env bash
# bench_snapshot.sh — run the snapshot benchmark set and write one
# BENCH_<group>.json per group, next to a bench-raw-<group>.txt with the
# unparsed `go test -bench` output.
#
# Groups:
#   reader_scaling  BenchmarkReaderScaling   (root package)
#   maintain_batch  BenchmarkMaintainBatch   (root package)
#   wire_latency    BenchmarkWirePing        (internal/server, single run)
#   replica_catchup BenchmarkReplicaCatchup  (internal/repl; cold-start
#                                             time-to-VN-parity per backlog)
#   shard_scaling   BenchmarkShardScaling    (internal/shard; two-phase
#                                             publish and fan-out scan per
#                                             shard width)
#
# Each JSON file carries the commit, timestamp, and platform alongside the
# parsed ns/op, B/op, and allocs/op per benchmark, so CI artifacts are
# directly diffable across runs without re-parsing Go bench text.
#
# Environment:
#   BENCH_OUT_DIR        output directory (default: repo root)
#   READER_BENCHTIME     -benchtime for reader_scaling  (default 1000x)
#   BATCH_BENCHTIME      -benchtime for maintain_batch  (default 3x)
#   WIRE_BENCHTIME       -benchtime for wire_latency    (default 1000x)
#   REPLICA_BENCHTIME    -benchtime for replica_catchup (default 20x)
#   SHARD_BENCHTIME      -benchtime for shard_scaling   (default 20x)
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${BENCH_OUT_DIR:-.}"
mkdir -p "$out_dir"

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
goos=$(go env GOOS)
goarch=$(go env GOARCH)

# parse_bench turns `go test -bench` result lines into a JSON results array
# (bodies only; the caller wraps them in the snapshot envelope).
parse_bench() {
  awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      iters = $2
      ns = ""; bytes = ""; allocs = ""
      for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        else if ($(i+1) == "B/op") bytes = $i
        else if ($(i+1) == "allocs/op") allocs = $i
      }
      if (ns == "") next
      if (n++) printf ",\n"
      printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
      if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
      if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
      printf "}"
    }
    END { if (n) printf "\n" }
  '
}

run_group() {
  local group="$1" pattern="$2" pkg="$3" benchtime="$4"
  local raw="$out_dir/bench-raw-$group.txt"
  local json="$out_dir/BENCH_$group.json"

  echo "== $group: go test -bench '$pattern' -benchtime $benchtime $pkg" >&2
  go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem -count=1 "$pkg" 2>&1 | tee "$raw"

  local results
  results=$(parse_bench <"$raw")
  if [ -z "$results" ]; then
    echo "bench_snapshot: no benchmark results parsed for $group" >&2
    exit 1
  fi
  {
    printf '{\n'
    printf '  "group": "%s",\n' "$group"
    printf '  "commit": "%s",\n' "$commit"
    printf '  "timestamp": "%s",\n' "$stamp"
    printf '  "goos": "%s",\n' "$goos"
    printf '  "goarch": "%s",\n' "$goarch"
    printf '  "benchtime": "%s",\n' "$benchtime"
    printf '  "results": [\n'
    printf '%s' "$results"
    printf '  ]\n'
    printf '}\n'
  } >"$json"

  # Best-effort validation: a malformed snapshot should fail loudly here,
  # not in whatever downstream tooling reads the artifact.
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool <"$json" >/dev/null
  fi
  echo "wrote $json" >&2
}

run_group reader_scaling 'BenchmarkReaderScaling' '.' "${READER_BENCHTIME:-1000x}"
run_group maintain_batch 'BenchmarkMaintainBatch' '.' "${BATCH_BENCHTIME:-3x}"
run_group wire_latency '^BenchmarkWirePing$' './internal/server/' "${WIRE_BENCHTIME:-1000x}"
run_group replica_catchup '^BenchmarkReplicaCatchup$' './internal/repl/' "${REPLICA_BENCHTIME:-20x}"
run_group shard_scaling '^BenchmarkShardScaling$' './internal/shard/' "${SHARD_BENCHTIME:-20x}"
