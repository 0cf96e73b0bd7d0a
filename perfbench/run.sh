#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload <search|infer|fleet|fleet-flat|all> --seed N --seconds S --trace 0|1
# Run it from the repository root. Everything it writes stays under the
# working directory: the binary and the Go build cache in .bench_build/,
# the per-run artifacts in .bench_out/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --commit "$commit" "$@"
