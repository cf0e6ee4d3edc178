#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload backfill --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare setA setB
#   bash perfbench/run.sh toy
#
# Everything the build and the runs leave behind goes under .bench_build in
# the current directory: the Go build cache, the binary, generated fixtures,
# scratch stores and span files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
