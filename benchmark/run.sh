#!/bin/sh
# One run of the driver's protocol:
#   sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Builds the benchmark from source into <checkout>/.bench_build (the Go
# build cache included, so nothing is written outside the checkout) and
# runs it from this directory; the last line of its standard output is
# the result.
set -e
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/questionbench" . >&2
exec "$build/questionbench" "$@"
