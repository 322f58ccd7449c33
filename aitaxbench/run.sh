#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash aitaxbench/run.sh --workload paper --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary and
# the traced runs' span files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ]; then
	echo "aitaxbench: $root holds no go.mod; run from a checkout of the aitax module" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS="-mod=readonly -buildvcs=false" GOTOOLCHAIN=local
go build -o "$out/aitaxbench" ./aitaxbench
exec "$out/aitaxbench" "$@"
