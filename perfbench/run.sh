#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fib-mem --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything the build and the run
# write goes under $CARGO_TARGET_DIR (default .bench_build), Go's build
# cache included, so nothing outside the checkout is touched.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config
# directory; point that inside the output directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
