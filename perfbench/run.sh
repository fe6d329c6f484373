#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload f8-smallcnn-tiled --seed 1 --seconds 10 --trace 0
#
# Every build product and the Go build cache stay under .bench_build/.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$src" build -o "$out/bench" .
exec "$out/bench" "$@"
