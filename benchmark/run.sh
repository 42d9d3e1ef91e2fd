#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it. Everything the
# build and the run write — binaries, the Go build cache, span files — goes
# under .bench_build/ at the checkout root. Arguments are passed through:
#
#   bash benchmark/run.sh --workload lenet5_open200 --seed 3 --seconds 20 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp"

# The harness builds cmd/inspire-serve under the same environment. TMPDIR is
# for the C compiler cgo runs (package net); XDG_CONFIG_HOME for go's
# telemetry counters.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/harness" .)
exec "$build/harness" -root "$root" "$@"
