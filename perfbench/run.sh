#!/usr/bin/env bash
# Builds the served-request benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload lp-serve --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Every build artefact (the Go build cache and
# the benchmark binary) stays under .bench_build/ in the current directory,
# and the toolchain is kept offline: the module has no dependencies outside
# this repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 XDG_CONFIG_HOME="$out/config"

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
