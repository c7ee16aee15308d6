#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash gtperf/run.sh --workload train-light --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (Go build cache, binary, toolchain state) and
# every file the run writes (checkpoints, span traces) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/gtperf" build -o "$out/gtperf" .
exec "$out/gtperf" "$@"
