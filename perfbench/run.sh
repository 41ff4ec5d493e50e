#!/usr/bin/env bash
# Builds the serve-path benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-dashboard --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build artefact and cache stays
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOENV=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
