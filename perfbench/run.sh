#!/usr/bin/env bash
# Builds the benchmark and the mixnet module it measures from source, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload iter-mixnet --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays under
# .bench_build/ in the current directory; no network access is attempted.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
