#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload decode-tp8 --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the traced run's files stay under
# .bench_build/ in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
