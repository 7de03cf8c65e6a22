#!/usr/bin/env bash
# Build the benchmark from source and run it. Everything the build and the
# run leave behind — Go's build cache, the binary, sockets, shm segments —
# stays under .bench_build/ in the checkout (trace dumps go to bench/out/).
#
#   bash bench/run.sh --workload record-mix --seed 42 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
# go build is incremental: a second call with unchanged sources relinks
# nothing. GOPATH and XDG_CONFIG_HOME keep the toolchain's module cache and
# its telemetry counters inside the checkout too.
(cd "$root/bench" && GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local go build -o "$build/pythia-bench" .)
cd "$root"
exec "$build/pythia-bench" "$@"
