#!/usr/bin/env bash
# Smoke-check a benchmark binary's JSON output: run it with tiny
# parameters (the caller sets the BOHM_BENCH_* knobs; CTest does), then
# assert that every Bohm point carries a real latency distribution:
# lat_count > 0 and 0 < p50 <= p99 <= p999 (guards the end-to-end latency
# path, Submit stamp -> exec-stage record -> fold -> JSON).
#
# Which keys a point carries is not checked here: JsonReport emits one key
# per row of the statistics registry (kStatFields in src/common/stats.h)
# on every point, and harness_test's
# ReportTest.JsonPointCarriesEveryRegisteredKey pins the exact key list.
#
# With BOHM_SMOKE_REQUIRE_MIGRATIONS=1 (the hotspot-bench smoke sets it:
# that bench runs an adaptive point under skewed traffic, so a zero
# migration count means the controller rotted), at least one Bohm point
# must additionally report cc_migrations > 0.
#
# When BOHM_SMOKE_MIN_TPUT > 0 (CTest sets it on Release builds only —
# sanitizer and debug presets run an order of magnitude slower), the
# best Bohm 1-thread point must also clear that throughput floor.
# Baseline for the floor: the barriered (pre-streaming) pipeline at the
# same smoke knobs (BOHM_BENCH_THREADS=1,2 RECORDS=512 WARMUP_MS=10
# MEASURE_MS=50) measured ~323K txn/s at 1 thread on the CI host; the
# floor is set well below it (see CMakeLists.txt) because 50ms windows
# on a loaded host are noisy — it catches an order-of-magnitude
# regression (e.g. a stage accidentally serialized against a sleeping
# wait), while regression *to a barrier* is caught structurally by the
# bohm_streaming_test overlap tests, not by timing.
#
# Usage: bench_smoke.sh <bench-binary> <json-output-path>
set -euo pipefail

bin=${1:?usage: bench_smoke.sh <bench-binary> <json-output-path>}
out=${2:?usage: bench_smoke.sh <bench-binary> <json-output-path>}
min_tput=${BOHM_SMOKE_MIN_TPUT:-0}
require_migrations=${BOHM_SMOKE_REQUIRE_MIGRATIONS:-0}

rm -f "$out"
BOHM_BENCH_JSON="$out" "$bin"

if [[ ! -s "$out" ]]; then
  echo "FAIL: $bin did not write $out" >&2
  exit 1
fi

# One point per line with a fixed key order (see src/harness/report.cc),
# so awk can assert without a JSON parser.
awk -v min_tput="$min_tput" -v require_migrations="$require_migrations" '
  # Prefix match: the hotspot ablation emits "Bohm-static"/"Bohm-adaptive"
  # variants; all Bohm points run through the same driver, so every
  # assertion below applies to them unchanged.
  /"system": "Bohm/ {
    bohm++
    lat_count = p50 = p99 = p999 = -1
    cc_migr = threads = tput = -1
    # Strip JSON punctuation up front so values quoted as strings (the
    # swept parameters, e.g. "threads": "1") parse numerically too.
    gsub(/[",:{}]/, "", $0)
    for (i = 1; i <= NF; ++i) {
      if ($i == "lat_count") lat_count = $(i + 1) + 0
      if ($i == "p50_us") p50 = $(i + 1) + 0
      if ($i == "p99_us") p99 = $(i + 1) + 0
      if ($i == "p999_us") p999 = $(i + 1) + 0
      if ($i == "cc_migrations") cc_migr = $(i + 1) + 0
      if ($i == "threads") threads = $(i + 1) + 0
      if ($i == "tput_txns_per_sec") tput = $(i + 1) + 0
    }
    if (lat_count <= 0) { print "FAIL: Bohm point with lat_count<=0: " $0; bad++ }
    else if (p50 <= 0) { print "FAIL: Bohm point with p50_us<=0: " $0; bad++ }
    else if (p50 > p99 || p99 > p999) {
      print "FAIL: non-monotone percentiles (p50 " p50 ", p99 " p99 ", p999 " p999 "): " $0
      bad++
    }
    total_migr += cc_migr > 0 ? cc_migr : 0
    if (threads == 1 && tput > best_1t) best_1t = tput
  }
  END {
    if (bohm == 0) { print "FAIL: no Bohm points in output"; exit 1 }
    if (min_tput > 0) {
      if (best_1t + 0 < min_tput) {
        print "FAIL: Bohm 1-thread throughput " best_1t + 0 \
              " txn/s below floor " min_tput " (barriered baseline ~323K)"
        bad++
      } else {
        print "OK: Bohm 1-thread throughput " best_1t " txn/s >= floor " min_tput
      }
    }
    if (require_migrations + 0 > 0) {
      if (total_migr + 0 == 0) {
        print "FAIL: BOHM_SMOKE_REQUIRE_MIGRATIONS set but no Bohm point reported cc_migrations > 0"
        bad++
      } else {
        print "OK: adaptive points reported " total_migr " migrations"
      }
    }
    if (bad > 0) exit 1
    print "OK: " bohm " Bohm points, all with non-zero monotone latency"
  }
' "$out"
