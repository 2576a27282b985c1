#!/usr/bin/env bash
# Builds jammbench from the sources in this checkout and runs it with the
# arguments given. Everything the build writes — Go's build cache, its
# scratch files, the binary — stays under .bench_build in the checkout,
# so a run reads the Go toolchain and this checkout and writes nowhere
# else. The first call in a fresh checkout compiles the standard library
# into that cache; later calls only re-link when a source file changed.
#
# BENCHMARK.json names this script as the benchmark's command:
#   bash cmd/jammbench/run.sh --workload relay-chain --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/jammbench ]; then
	echo "run.sh: run from the root of the repository (go.mod and cmd/jammbench must be here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME: the go command keeps its usage counters under the
# user's configuration directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local CGO_ENABLED=0 GOFLAGS=

go build -o "$build/jammbench.bin" ./cmd/jammbench
exec "$build/jammbench.bin" "$@"
