#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through:
#
#   bash wasnbench/run.sh --workload churn-zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# traced runs' span files all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOTELEMETRY=off

(cd "$root/wasnbench" && go build -o "$out/wasnbench" .)
exec "$out/wasnbench" -trace-dir "$out" "$@"
