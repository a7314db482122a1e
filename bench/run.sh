#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. Everything the
# build and the run write goes under .bench_build at the root of the
# checkout, so that a run reads and writes nothing outside it.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp" "$build/run"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$bench" && go build -o "$build/bench" .)
exec "$build/bench" -workdir "$build/run" "$@"
