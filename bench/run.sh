#!/bin/sh
# The command BENCHMARK.json names. It builds the benchmark from source
# into .bench_build/ at the root of the checkout, keeping Go's build
# cache and (empty: there is nothing to download) module cache there too
# so that nothing is written outside the checkout, and runs it from this
# directory with the caller's flags.
set -e
cd "$(dirname "$0")"
root=$(cd .. && pwd)
: "${GOCACHE:=$root/.bench_build/gocache}"
: "${GOPATH:=$root/.bench_build/gopath}"
export GOCACHE GOPATH
go build -o "$root/.bench_build/nwcbench" .
exec "$root/.bench_build/nwcbench" "$@"
