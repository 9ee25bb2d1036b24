#!/usr/bin/env bash
# Checks that the figure, table and ablation benches regenerate every
# committed results/*.csv byte for byte.
#
#   tools/check_figures.sh BUILD_DIR
#
# Runs the CSV-writing benches of BUILD_DIR/bench one after another in a
# temporary directory (each writes its CSVs into the working directory),
# then compares each results/*.csv with its regenerated copy. Names every
# file that differs or was not written, and every bench that failed; exits
# 1 if there is any, 2 on a usage error. Takes about 20 s on a Release
# build (4 cores).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bench_dir="$(cd "$1" && pwd)/bench"

benches=(
  bench_table1_hardware
  bench_fig5_switch_drives
  bench_fig6_alpha
  bench_fig7_request_size
  bench_fig8_scalability
  bench_fig9_components
  bench_ablation_refinement
  bench_ablation_loadbalance
  bench_ablation_organpipe
  bench_ablation_striping
  bench_ablation_locality
  bench_ablation_robot
  bench_ablation_clustering
  bench_ablation_disk
  bench_tech_scaling
  bench_incremental
  bench_concurrency
)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

status=0
for bench in "${benches[@]}"; do
  if ! (cd "$work" && "$bench_dir/$bench" > "$bench.log" 2>&1); then
    echo "FAILED: $bench (last lines of its output below)"
    tail -n 5 "$work/$bench.log" || true
    status=1
  fi
done

checked=0
for reference in "$repo"/results/*.csv; do
  name="$(basename "$reference")"
  checked=$((checked + 1))
  if [[ ! -f "$work/$name" ]]; then
    echo "MISSING: $name (no bench wrote it)"
    status=1
  elif ! cmp -s "$reference" "$work/$name"; then
    echo "DIFFERS: $name"
    status=1
  fi
done

if [[ $status -eq 0 ]]; then
  echo "check_figures.sh: all $checked results/*.csv reproduce byte for byte"
fi
exit $status
