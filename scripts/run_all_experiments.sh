#!/usr/bin/env bash
# Regenerate every table and figure of the paper, with its verdict
# lines, as one memoized campaign (`pomtlb figures`), tee-ing the
# tables the way EXPERIMENTS.md records them.
#
#   scripts/run_all_experiments.sh [build-dir] [output-file] [jobs]
#
# jobs is the worker-thread count (default 0 = all hardware threads;
# results are bit-identical at every count). Progress and the
# campaign accounting go to stderr. The script exits with the verb's
# status: 1 when a verdict fails.

set -euo pipefail

BUILD_DIR="${1:-build}"
OUTPUT="${2:-figures_output.txt}"
JOBS="${3:-0}"
POMTLB="$BUILD_DIR/tools/pomtlb"

if [ ! -x "$POMTLB" ]; then
    echo "error: $POMTLB not found — build the project first" >&2
    exit 1
fi

"$POMTLB" figures --jobs "$JOBS" | tee "$OUTPUT"
