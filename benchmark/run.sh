#!/usr/bin/env bash
# Builds bccd and the benchmark from source, then runs the benchmark with the
# arguments given. Run it from the repository root:
#
#   bash benchmark/run.sh --workload engines-random --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache and per-run scratch data stay under
# .bench_build/ in the repository root; nothing is written elsewhere.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bccd || ! -f benchmark/go.mod ]]; then
  echo "benchmark/run.sh: run from the repository root (needs go.mod, cmd/bccd and benchmark/)" >&2
  exit 2
fi

out=.bench_build
mkdir -p "$out"
root=$(pwd)
export GOCACHE="$root/$out/gocache" GOMODCACHE="$root/$out/gomodcache" GOPATH="$root/$out/gopath" \
  XDG_CONFIG_HOME="$root/$out/config" XDG_CACHE_HOME="$root/$out/cache" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bccd" ./cmd/bccd >&2
(cd benchmark && go build -o "../$out/benchmark" .) >&2
exec "$out/benchmark" -bccd "$out/bccd" -work "$out" "$@"
