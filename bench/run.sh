#!/usr/bin/env bash
# Driver entry point: build the benchmark from source inside the checkout
# (binary, Go build cache and temp files all under .bench_build/), then run it
# with the driver's arguments:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
# A no-op when the sources have not changed since the last build.
go build -C "$here" -o "$build/ubikbench" . >&2
cd "$root"
exec "$build/ubikbench" "$@"
