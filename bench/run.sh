#!/usr/bin/env bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: Go's build cache, its config directory and every
# temp dir (the WAL's too) are pointed into .bench_build/.
#
#   bash bench/run.sh --workload wire_write --seed 7 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/resin-bench" ./bench
exec "$build/resin-bench" "$@"
