#!/usr/bin/env bash
# Builds tokabench from this checkout when needed, then runs it with the
# given arguments. Build output goes to stderr, so the last line of stdout
# is tokabench's JSON result.
#
#   bash bench/tokabench/run.sh --workload wire_zipf --seed 1 --seconds 15 --trace 0
#
# The build lives in .bench_build/tokabench (override with
# TOKABENCH_BUILD_DIR).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build=${TOKABENCH_BUILD_DIR:-$root/.bench_build/tokabench}

{
  if [ ! -f "$build/CMakeCache.txt" ] ||
     { [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; }; then
    generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    rm -f "$build/CMakeCache.txt"  # a configure that failed half-way
    cmake -S "$root/bench/tokabench" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$(nproc)"
} >&2

exec "$build/tokabench" "$@"
