#!/usr/bin/env bash
# Build, test and regenerate every paper table/figure.
set -euo pipefail
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
./build/tools/pdslint   # static-analysis gate: token and flow rules (DESIGN.md §12, §17)
ctest --test-dir build --output-on-failure
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done
