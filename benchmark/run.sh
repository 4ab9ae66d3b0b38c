#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind goes to .bench_build/ at the root of
# the checkout, the Go build cache included, so that a run reads and
# writes nothing outside the checkout. The benchmark is a module of its
# own (benchmark/go.mod) that replaces module dodo with the parent
# directory: without the repository around it the build fails and the
# script exits non-zero.
set -eu
dir=$(cd "$(dirname "$0")" && pwd)
build="$dir/../.bench_build"
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$dir" -o "$build/dodo-benchmark" .
exec "$build/dodo-benchmark" -out "$dir/out" -spec "$dir/../BENCHMARK.json" "$@"
