#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# file a run writes live under .bench_build/ in the current directory;
# nothing is fetched, so a checkout without the osars module at its root
# fails the build and exits non-zero.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false"

(cd perfbench && go build -o "$out/perfbench.new" .)
mv -f "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" --scratch "$out" "$@"
