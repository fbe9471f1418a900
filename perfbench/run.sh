#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload plan-wide --seed 1 --seconds 20 --trace 0
#
# Every build artefact (the Go build cache and the binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
