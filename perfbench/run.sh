#!/usr/bin/env bash
# Builds diffra's serving-path benchmark from the sources of this
# checkout and runs it with the given flags. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload miss-remap --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the traced run's spans all stay under
# .bench_build in the checkout. Without the repository around it (only
# BENCHMARK.json and perfbench/), the build fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
