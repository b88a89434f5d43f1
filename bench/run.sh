#!/usr/bin/env bash
# Builds bench/inipbench from this checkout's sources and runs it with
# the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload suite_cold --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache, the Go command's config and telemetry
# files and every temporary file stay under .bench_build at the
# checkout root. The benchmark module resolves the repository module
# from the parent directory, so outside a full checkout the build, and
# with it this script, fails.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/inipbench" ./inipbench)
cd "$root"
exec "$build/inipbench" "$@"
