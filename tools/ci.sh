#!/usr/bin/env bash
# Minimal CI gate: release build + tier-1 tests, then the same suite under
# ASan+UBSan and under TSan. Run from anywhere; builds land in <repo>/build,
# <repo>/build-asan, and <repo>/build-tsan (the CMake presets' binary dirs).
#
#   tools/ci.sh            # release + both sanitizer passes
#   tools/ci.sh --fast     # release pass only
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"
jobs="$(nproc 2>/dev/null || echo 4)"

# The release pass builds warning-clean: -Werror over the project's own
# -Wall -Wextra -Wpedantic -Wshadow -Wconversion -Wsign-conversion set.
echo "==> release build (-Werror) + tier1 tests"
cmake --preset default -DTAPESIM_WERROR=ON
cmake --build --preset default -j "$jobs"
ctest --test-dir build -L tier1 --output-on-failure -j "$jobs"

echo "==> overload storm bench self-check (tier2-overload)"
ctest --test-dir build -L tier2-overload --output-on-failure

echo "==> scrub durability bench self-check (tier2-scrub)"
ctest --test-dir build -L tier2-scrub --output-on-failure

echo "==> outage recovery bench self-check (tier2-outage)"
ctest --test-dir build -L tier2-outage --output-on-failure

echo "==> fail-slow mitigation bench self-check (tier2-failslow)"
ctest --test-dir build -L tier2-failslow --output-on-failure

echo "==> crash recovery bench self-check (tier2-crash)"
ctest --test-dir build -L tier2-crash --output-on-failure

echo "==> metastable governor bench self-check (tier2-metastable)"
ctest --test-dir build -L tier2-metastable --output-on-failure

# Every figure, table and ablation CSV under results/ must regenerate
# byte for byte (tools/check_figures.sh).
echo "==> figure CSVs reproduce (tier2-figures)"
ctest --test-dir build -L tier2-figures --output-on-failure

# Perf scenario + regression gate against results/perf/ baselines. Release
# tree only: sanitizer builds skew every wall/RSS number the gate reads.
echo "==> perf scenario + regression gate (tier2-perf)"
ctest --test-dir build -L tier2-perf --output-on-failure

# The benchmark smoke is the only run of the five benchmark workloads'
# output checks on the real fleets, and of traced runs reproducing
# untraced ones. It builds its own Release benchmark binary under
# .bench_build/.
echo "==> benchmark smoke (benchmark/run.py --smoke)"
python3 benchmark/run.py --smoke

if [[ "${1:-}" == "--fast" ]]; then
  echo "==> done (fast mode: sanitizer pass skipped)"
  exit 0
fi

# The sanitizer presets build tests only by default (benches are
# release-preset artifacts); the scrub/evacuation, outage/DR,
# fail-slow/hedging, crash-recovery, and governor/metastable machinery is
# timing-heavy enough that their bench self-checks earn a sanitized run
# too, so the bench build is switched back on here and tier2-scrub,
# tier2-outage, tier2-failslow, tier2-crash, and tier2-metastable ride
# along with tier1. The perf-compares are excluded: sanitizer wall/RSS
# numbers are meaningless against release baselines.
echo "==> asan+ubsan build + tier1 + tier2-scrub/outage/failslow/crash/metastable tests"
cmake --preset asan-ubsan -DTAPESIM_BUILD_BENCH=ON
cmake --build --preset asan-ubsan -j "$jobs"
ctest --test-dir build-asan \
  -L 'tier1|tier2-scrub|tier2-outage|tier2-failslow|tier2-crash|tier2-metastable' \
  -E 'outage_perf_compare|failslow_perf_compare|crash_perf_compare|metastable_perf_compare' \
  --output-on-failure -j "$jobs"

echo "==> tsan build + tier1 + tier2-scrub/outage/failslow/crash/metastable tests"
cmake --preset tsan -DTAPESIM_BUILD_BENCH=ON
cmake --build --preset tsan -j "$jobs"
ctest --test-dir build-tsan \
  -L 'tier1|tier2-scrub|tier2-outage|tier2-failslow|tier2-crash|tier2-metastable' \
  -E 'outage_perf_compare|failslow_perf_compare|crash_perf_compare|metastable_perf_compare' \
  --output-on-failure -j "$jobs"

echo "==> done"
