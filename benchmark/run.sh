#!/usr/bin/env bash
# Builds the benchmark driver (Release, into .bench_build/) and runs workloads.
#
# Usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# Without --workload, every workload runs, each in its own process, and the script exits
# non-zero if any of them failed a check. Build output goes to stderr; stdout carries only
# the driver's `workload metric value unit` lines and, last, its JSON summary.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
BUILD="$ROOT/.bench_build"
WORKLOADS="batch_mix staggered_admission service_bursty async_monotonic"

if [ ! -f "$ROOT/CMakeLists.txt" ] || [ ! -d "$ROOT/src" ]; then
  echo "error: the engine sources are missing next to benchmark/" >&2
  exit 2
fi

{
  if [ ! -f "$BUILD/CMakeCache.txt" ]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then
      generator=(-G Ninja)
    fi
    cmake -S "$ROOT/benchmark" -B "$BUILD" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$BUILD" --target cgraph_bench -j "$(nproc)"
} >&2

cd "$ROOT"
for arg in "$@"; do
  if [ "$arg" = --workload ]; then
    exec "$BUILD/cgraph_bench" "$@"
  fi
done
status=0
for w in $WORKLOADS; do
  "$BUILD/cgraph_bench" --workload "$w" "$@" || status=1
done
exit "$status"
