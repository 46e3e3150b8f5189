#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json "command"), started from the root
# of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the program from source and runs it with the arguments given.
# Everything it writes — the Go build cache, the binary, WAL and snapshot
# scratch files — stays under .bench_build/ in that checkout.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command keeps its telemetry counters in the user's config directory.
export XDG_CONFIG_HOME="$out/config"
# Standard library and this repository only: nothing to fetch.
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$src" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
