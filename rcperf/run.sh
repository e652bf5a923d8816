#!/usr/bin/env bash
# Builds the rcperf benchmark from the surrounding source tree and runs it.
#
#   bash rcperf/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache,
# temporary build directories, the binary) and every file the benchmark
# writes stays under .bench_build/ in the current directory. The script
# replaces itself with the benchmark process, so it leaves no child behind.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gotmp" "${build}/gomodcache"

export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/gotmp"
export GOMODCACHE="${build}/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off

go build -C "${root}/rcperf" -o "${build}/rcperf" .
exec "${build}/rcperf" --workdir "${build}" "$@"
