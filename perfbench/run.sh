#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lib-zipf --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; no go.mod found in $root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

commit=unknown
if [[ -e "$root/.git" ]] && command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" --spans-dir "$build/spans" "$@"
