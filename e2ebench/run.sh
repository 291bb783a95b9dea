#!/usr/bin/env bash
# Builds the varbench CLI and the end-to-end benchmark's programs from the
# tree this is run in, then runs the benchmark. Run it from the root of the
# tree; the flags are e2ebench's (see e2ebench/main.go), for example:
#
#   bash e2ebench/run.sh --workload variance-tiny --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --workload all --seed 2 --seconds 10
#
# Binaries, the Go build cache and every file a run writes stay under
# .bench_build at the root of the tree.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/varbench || ! -d e2ebench/runner ]]; then
	echo "e2ebench: run from the root of a varbench tree (needs go.mod, cmd/varbench and e2ebench/runner)" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp"
go build -o "$out/bin/" ./cmd/varbench ./e2ebench ./e2ebench/runner
exec "$out/bin/e2ebench" "$@"
