#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload serve-node --seed 3 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# The build cache, the binary and the benchmark's scratch files all live
# under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f perfbench/go.mod ]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
