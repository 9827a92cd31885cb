#!/usr/bin/env bash
# Builds the figure-regeneration benchmark from this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload hapa-degree --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the
# per-iteration output directories) lands under .bench_build/ in the
# current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/sim || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/sim and perfbench/go.mod are required)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/tmp" "$@"
