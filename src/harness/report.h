// Result reporting for the figure/table benchmarks: aligned
// human-readable rows on stdout (the "same rows/series the paper reports")
// plus a full machine-readable JSON dump (throughput, latency percentiles
// and every registered statistic per measurement point) via
// BOHM_BENCH_JSON=<path> — the format behind the committed BENCH_*.json
// perf-trajectory snapshots at the repo root.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/driver.h"

namespace bohm {

class Report {
 public:
  /// `columns`: header names; first columns are parameters, then one
  /// throughput column per system (or whatever the bench prints).
  Report(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  /// Prints the title, header and all rows.
  void Print() const;

  static std::string FormatTput(double txns_per_sec);
  static std::string FormatDouble(double v, int precision = 2);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Machine-readable benchmark output. When the BOHM_BENCH_JSON
/// environment variable names a file, Write() emits every measurement
/// point a figure binary produced — parameters, seconds, throughput,
/// abort rate, the full latency profile (count/mean/p50/p99/p999/max in
/// microseconds), and one key per kStatFields row (src/common/stats.h) —
/// as one JSON object per line, so shell tools can assert on points
/// without a JSON parser. No-op when the variable is unset, so the
/// human-readable tables stay the default.
class JsonReport {
 public:
  /// One (name, value) pair per swept parameter, e.g. {"threads", "4"}.
  using Params = std::vector<std::pair<std::string, std::string>>;

  explicit JsonReport(std::string figure);

  bool enabled() const { return !path_.empty(); }

  /// Records one measurement point. Cheap no-op when disabled.
  void AddPoint(Params params, const std::string& system,
                const BenchResult& r);

  /// Writes the accumulated points to $BOHM_BENCH_JSON (no-op when
  /// disabled). Call once at the end of main().
  void Write() const;

 private:
  struct Point {
    Params params;
    std::string system;
    BenchResult result;
  };

  std::string figure_;
  std::string path_;
  std::vector<Point> points_;
};

}  // namespace bohm
