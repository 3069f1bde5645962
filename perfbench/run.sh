#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-paper16 --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) and
# every output file stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# Keep the go command's caches and settings inside the checkout, and keep it
# offline: the module needs nothing beyond the repository itself.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out .bench_build/perfbench-out "$@"
