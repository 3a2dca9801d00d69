#!/bin/sh
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload dfsio-read-vanilla --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and every file the run
# writes stay under .bench_build/ at the repository root, and the toolchain
# is kept offline.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$out/vread-bench" .
cd "$root"
exec "$out/vread-bench" "$@"
