#!/usr/bin/env bash
# Regenerates the golden files pinned by lint_schema_test.cpp and the
# generated protocol reference (docs/PROTOCOLS.md, from `bsr doc`). Both are
# deterministic: the static tiers explore nothing; the steps tier's dynamic
# half explores exhaustive specs whole, so their counts are schedule-order
# independent, and runs sampled specs (the §6 stacks) under fixed seeds, so
# their observed maxima are a function of every scheduler draw. The output
# is byte-stable; CI re-runs this script and fails on any uncommitted
# drift.
set -euo pipefail
cd "$(dirname "$0")/.."

BSR=build/tools/bsr
if [ ! -x "$BSR" ]; then
  cmake -B build -S . >/dev/null
  cmake --build build --target bsr_cli >/dev/null
fi

# Each golden pairs a clean protocol with a canary that must fail, so the
# expected exit code is 1 (lint findings). Anything else — 2 is a usage or
# internal failure — means the tool is broken, not the goldens stale.
gen() {
  local out="$1"
  shift
  local rc=0
  "$BSR" "$@" > "$out" || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "update_goldens: '$BSR $*' exited $rc" >&2
    exit "$rc"
  fi
}

gen tests/golden/lint_static.json \
  lint --mode=static --json --protocol alg1,demo-misdeclared
gen tests/golden/lint_symbolic.json \
  lint --mode=symbolic --json \
  --protocol sec4-quantized,demo-misdeclared-symbolic,demo-holds-small-n
# The interference canary is warning-only, so this golden pins exit 0.
gen tests/golden/lint_interference.json \
  lint --mode=interference --json --protocol alg1,demo-false-independence
# The termination canary's undeclared [0, ∞] loop is an error, so exit 1.
# The three §6 stacks are sampled: their observed maxima pin run_random's
# draws, so a scheduler change that alters any schedule shows up here.
gen tests/golden/lint_steps.json \
  lint --mode=steps --json \
  --protocol alg1,demo-unbounded-loop,sec6-stack,abd-stack,ring-stack

# The serve envelope golden (serve_test.cpp pins it byte-exact): one static
# lint answered through the loopback service. Deterministic — static tier,
# no timestamps in the envelope, and the cache key is a structural hash.
gen tests/golden/serve_lint.json \
  serve --loopback \
  '--request={"mode":"lint","protocols":["alg1"],"lint_mode":"static"}'

# The protocol reference is rendered from the registry's reflected IR;
# `bsr doc` exits 0 or the tool is broken.
"$BSR" doc > docs/PROTOCOLS.md

# Splice the generated request-mode table into docs/SERVE.md between the
# serve-modes markers, so the service contract cannot drift from the
# daemon's dispatch table.
"$BSR" doc --serve-modes > /tmp/serve_modes.$$
awk -v table=/tmp/serve_modes.$$ '
  /<!-- serve-modes:begin -->/ {
    print; while ((getline line < table) > 0) print line; skip = 1; next
  }
  /<!-- serve-modes:end -->/ { skip = 0 }
  !skip { print }
' docs/SERVE.md > docs/SERVE.md.new
mv docs/SERVE.md.new docs/SERVE.md
rm -f /tmp/serve_modes.$$

echo "goldens updated:"
ls -l tests/golden/ docs/PROTOCOLS.md docs/SERVE.md
