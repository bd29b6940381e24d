#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ — binary, Go build cache, GOPATH and
# Go's temporary files, so nothing is written outside the checkout — and runs it
# from the repository root with the arguments given. BENCHMARK.json names this
# script as the benchmark's command.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/bfbench" .
exec "$build/bfbench" "$@"
