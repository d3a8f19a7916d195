#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
# Everything the build writes, Go's build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/compso-bench" ./bench
exec "$build/compso-bench" "$@"
