#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in, then runs it.
#
#   bash perfbench/run.sh --workload sort-faulty --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binaries, temporary data roots, span files) stays under
# $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" -build "$build" "$@"
