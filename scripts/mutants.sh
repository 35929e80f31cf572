#!/usr/bin/env bash
# Runs the committed mutants. Each tests/mutants/<name>.patch breaks one
# correctness check on purpose and names, in its header, the ctest entry
# (a test binary) and the test case in it that must catch the break:
#
#   Must fail: <ctest entry> <test case>
#
# The script copies the working tree to a temporary directory and builds
# there. Each named case must pass on the unmutated copy. Then, for each
# patch: `git apply`, rebuild the entry's target, run the case, and
# `git apply -R`. It exits 1 if a patch no longer applies, a mutant does
# not build, or a mutant survives (its case passes).
#
#   scripts/mutants.sh                         # every committed patch
#   scripts/mutants.sh tests/mutants/x.patch   # just these
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ $# -gt 0 ]; then
  patches=()
  for p in "$@"; do patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")"); done
else
  patches=("$root"/tests/mutants/*.patch)
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
tar -C "$root" --exclude=./.git --exclude='./build*' --exclude=./.bench_build \
  -cf - . | tar -C "$work/tree" -xf -
if ! cmake -S "$work/tree" -B "$work/build" -DCMAKE_BUILD_TYPE=Release \
    > "$work/configure.log" 2>&1; then
  cat "$work/configure.log"
  exit 1
fi

build() {
  cmake --build "$work/build" -j "$(nproc)" --target "$1" > "$work/build.log" 2>&1
}

# Runs one case; true when it ran and passed. A filter that matches no
# case prints no PASSED line, so a renamed test cannot pass silently.
passes() {
  "$work/build/$1" --gtest_filter="$2" > "$work/run.log" 2>&1 &&
    grep -q '^\[  PASSED  \] 1 test\.' "$work/run.log"
}

status=0
for patch in "${patches[@]}"; do
  read -r target case < <(sed -n 's/^Must fail: //p' "$patch") || true
  if [ -z "${target:-}" ] || [ -z "${case:-}" ]; then
    echo "FAIL $(basename "$patch"): no 'Must fail: <entry> <case>' line"
    exit 1
  fi
  if ! build "$target" || ! passes "$target" "$case"; then
    cat "$work/build.log" "$work/run.log" 2> /dev/null | tail -20
    echo "FAIL $(basename "$patch"): $target $case does not pass unmutated"
    exit 1
  fi
done

for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  read -r target case < <(sed -n 's/^Must fail: //p' "$patch")
  if ! (cd "$work/tree" && git apply "$patch"); then
    echo "FAIL $name: the patch no longer applies; refresh it"
    status=1
    continue
  fi
  if ! build "$target"; then
    tail -20 "$work/build.log"
    echo "FAIL $name: the mutant does not build"
    status=1
  elif passes "$target" "$case"; then
    echo "FAIL $name: survived, $target $case passed"
    status=1
  else
    echo "killed $name by $target $case"
  fi
  (cd "$work/tree" && git apply -R "$patch")
done
exit $status
