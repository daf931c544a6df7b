#!/usr/bin/env bash
# Build, test and regenerate every paper table/figure.
set -euo pipefail
cd "$(dirname "$0")/.."
# The tier-1 configure line: a build/ made by it (or by this script) is
# reused as is, since CMake refuses to switch an existing tree's generator.
cmake -B build -S .
cmake --build build -j
./build/tools/pdslint   # static-analysis gate: token and flow rules (DESIGN.md §12, §17)
ctest --test-dir build --output-on-failure
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done
