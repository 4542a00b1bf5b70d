#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload query-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and temporary files, the binary, reports,
# span files and scratch data. Build output goes to standard error, so the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=unknown
	if [ -d .git ]; then
		PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	fi
	export PERFBENCH_COMMIT
fi
go -C perfbench build -trimpath -buildvcs=false -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
