#!/usr/bin/env bash
# Builds the benchmark and the dsmcd server from the source tree it is
# run in, then runs one workload. Run it from the repository root:
#
#   bash dsmcbench/run.sh --workload wedge --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ in the repository root:
# the Go build cache, the two binaries and the per-run scratch directory.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dsmcd" ] || [ ! -f "$root/dsmcbench/go.mod" ]; then
	echo "run.sh: run from the repository root: go.mod, cmd/dsmcd or dsmcbench/ is missing" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/dsmcbench" -o "$out/dsmcbench" .
go build -o "$out/dsmcd" ./cmd/dsmcd
exec "$out/dsmcbench" -root "$root" -dsmcd "$out/dsmcd" -workdir "$out/run" "$@"
