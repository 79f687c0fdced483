#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#   bash perfbench/run.sh --workload sweep_exact --seed 1 --seconds 15 --trace 0
# Run it from the root of the checkout. The build cache, the binary and every
# scratch file stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -tmp "$out/tmp" "$@"
