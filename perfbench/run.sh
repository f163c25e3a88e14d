#!/usr/bin/env bash
# Builds the benchmark and the cmpserved daemon from the checkout it is
# run in, then runs one benchmark workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload sim-trade2 --seed 1 --seconds 20 --trace 0
#
# Build caches and binaries go to .bench_build/, spans, CPU profiles and
# daemon logs to .bench_out/, both under the current directory. The
# last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep every file the toolchain writes inside the checkout, and never
# reach for the network: the module has no external dependencies.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" . &&
	go build -o "$build/cmpserved" cmpcache/cmd/cmpserved) >&2

exec "$build/perfbench" -server "$build/cmpserved" -out "$root/.bench_out" "$@"
