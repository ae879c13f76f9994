#!/usr/bin/env bash
# Builds the service benchmark and runs one workload:
#
#   bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. It builds `llm4eda` from the tree under
# test plus the benchmark's generator and traced host into .bench_build/,
# with the Go build cache and temporary files kept there too, then execs
# the generator with the arguments given. The last line of standard
# output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/llm4eda" ./cmd/llm4eda
(cd perfbench && go build -o "$out/bench" ./cmd/bench && go build -o "$out/host" ./cmd/host)
exec "$out/bench" -server "$out/llm4eda" -host "$out/host" -out "$out/results" "$@"
