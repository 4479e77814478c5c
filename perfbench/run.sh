#!/usr/bin/env bash
# Builds the benchmark harness and awserve from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload <tune_validate|serve_hot|serve_cold> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Every build artifact, the Go build
# cache included, stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/awserve/main.go || ! -f examples/models/manifest.json ]]; then
	echo "perfbench: run from the root of an accelwattch checkout (go.mod, cmd/awserve and examples/models are missing here)" >&2
	exit 2
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/awserve" ./cmd/awserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
