#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout
# root, forwarding every argument:
#
#   bash perfbench/run.sh --workload admission --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run scratch live under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
