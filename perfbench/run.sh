#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it; every argument passes through (see perfbench/METHOD.md).
# Run from the repository root:
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
# All build output (binary, Go build cache) and traces stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -commit "$commit" "$@"
