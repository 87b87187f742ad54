#!/usr/bin/env bash
# Build, test, and regenerate every figure/claim of the reproduction.
set -euo pipefail
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt
# Model-conformance lint: every built-in protocol against its paper claim.
ctest --test-dir build --output-on-failure -L lint 2>&1 | tee lint_output.txt
# Every figure/claim of the paper, each bench checking what it prints.
ctest --test-dir build -L paper -V 2>&1 | tee bench_output.txt
