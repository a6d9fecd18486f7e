#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own in this directory) and runs
# it with the given arguments. Everything Go writes — build cache, module
# cache, telemetry, the binaries, temporary files — stays under .bench_build
# in the checkout, and nothing outside the checkout steers the build: no go
# env file, no go.work and no git repository of a directory above it (a
# checkout is not a repository; stamping one that `git status` refuses to
# read fails the build).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export HOME="$build/home" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export GOENV=off GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
