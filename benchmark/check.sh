#!/usr/bin/env bash
# Acceptance check of the benchmark itself: two sets of runs of the same code
# and seed must agree within the benchmark's own bounds, and a second seed
# must pass its oracles too.
#
#   benchmark/check.sh            # from anywhere inside the repo
#
# Builds the harness, runs seed 1 twice and seed 2 once, and compares the two
# seed-1 files. Fails on any verdict other than unchanged/improved, on any
# failed operation, and if anything outside benchmark/ was created or changed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"
# Build into the harness's own (git-ignored) target directory unless the
# caller already chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

before="$(cd .. && git status --porcelain 2>/dev/null || true)"

cargo build --release --offline
run() { cargo run --release --offline --quiet -- "$@"; }

run run --seed 1 --out results/seed1.a.json
run run --seed 1 --out results/seed1.b.json
run run --seed 2

echo
echo "== seed 1, first set against second set"
run compare results/seed1.a.json results/seed1.b.json

after="$(cd .. && git status --porcelain 2>/dev/null || true)"
if [ "$before" != "$after" ]; then
    echo "check.sh: the working tree changed outside benchmark/results:" >&2
    diff <(echo "$before") <(echo "$after") >&2 || true
    exit 1
fi
echo "check.sh: ok"
