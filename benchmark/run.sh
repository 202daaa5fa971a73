#!/bin/sh
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build at the root of the checkout and runs it there. The Go build
# cache and temporary files stay inside the checkout too, so a run reads and
# writes nothing outside it.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
