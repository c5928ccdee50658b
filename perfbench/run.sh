#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload phi_pagerank --seed 1 --seconds 20 --trace 0
#
# Build caches and the binary stay inside the checkout, in .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
# The commit is recorded only when the checkout is itself a git work tree.
PERFBENCH_COMMIT=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD)
fi
export PERFBENCH_COMMIT
exec "$build/perfbench" "$@"
