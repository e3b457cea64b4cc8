#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it. Everything the Go toolchain writes (build cache, temp files,
# telemetry) is pointed inside the checkout, under .bench_build/, so a run
# reads and writes only there and in bench/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/chl-bench" .)
cd "$root"
exec "$build/chl-bench" -out "$here/out" -tmp "$build/tmp" "$@"
