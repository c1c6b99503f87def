#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind stays inside the checkout: the Go build cache, module path
# and temp dir live in .bench_build/, span files in benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/parj-benchmark" .) >&2
exec "$build/parj-benchmark" -scratch "$build/tmp" -out "$here/out" "$@"
