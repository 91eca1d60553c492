#!/usr/bin/env bash
# Builds pegflow's benchmark from the source tree around it and runs it.
#
#   bash perfbench/run.sh --workload sweep|bigrun|serve --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare BEFORE.out AFTER.out   # compare captured outputs
#   bash perfbench/run.sh record                         # re-pin reference.json
#   bash perfbench/run.sh saturate [SEED]                # serve capacity, closed loop
#
# Everything the build writes (Go build cache, binary, toolchain state)
# stays under .bench_build/ at the repository root. The benchmark is its
# own Go module that replaces the pegflow module with the checkout it sits
# in, so it fails to build — and exits non-zero — when the pegflow sources
# are absent.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
