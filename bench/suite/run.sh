#!/usr/bin/env bash
# The repository's benchmark (see bench/suite/README.md).
#
#   bash bench/suite/run.sh [--seed N] [--seconds S] [--smoke]
#       Build pomtlb_bench, run all four workloads untraced and then
#       traced, and print every metric by name with its unit.
#
#   bash bench/suite/run.sh --workload NAME [--seed N] [--seconds S]
#                           [--trace 0|1] [--smoke]
#       Build, then run one workload. The last line of standard
#       output is its result object.
#
# The build (Release, in .bench_build/ at the repository root) and
# the workloads' scratch files stay inside the checkout; build output
# goes to standard error.
set -euo pipefail

suite_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$suite_dir/../.." && pwd)
build_dir="$root/.bench_build/suite"
# Compile on at most four cores: each compiler process of src/ takes
# a few hundred MB.
jobs=$(nproc 2>/dev/null || echo 1)
if (( jobs > 4 )); then
    jobs=4
fi

{
    cmake -S "$suite_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build_dir" -j "$jobs"
} >&2

bench=("$build_dir/pomtlb_bench" --work-dir "$root/.bench_build/work")

for arg in "$@"; do
    if [[ $arg == --workload ]]; then
        exec "${bench[@]}" "$@"
    fi
done

for trace in 0 1; do
    for workload in mcf-run gups-replay churn-scenario fig8-sweep; do
        "${bench[@]}" --workload "$workload" --trace "$trace" "$@"
    done
done
