// Result reporting for the experiment runner: aligned human-readable rows
// on stdout plus a full machine-readable JSON dump (throughput, latency
// percentiles and every registered statistic per measurement point) —
// the format behind the committed BENCH_*.json perf-trajectory snapshots
// at the repo root.
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

/// (key, value) pairs: swept parameters, or measured values.
using Params = std::vector<std::pair<std::string, std::string>>;

/// Every measured value of one point in JSON order and format: seconds,
/// tput_txns_per_sec, abort_rate, the latency profile (lat_count,
/// lat_mean_us, p50_us, p99_us, p999_us, max_us), then one pair per
/// kStatFields row (src/common/stats.h).
Params PointFields(const BenchResult& r);

/// The measured points of one experiment. Write() emits each point's
/// parameters, then its PointFields, as one JSON object per line, so
/// line-oriented tools can assert on points without a JSON parser.
struct JsonReport {
  struct Point {
    Params params;
    std::string system;
    BenchResult result;
  };
  std::string figure;
  std::vector<Point> points = {};

  /// Writes the points to `path` through a temporary file renamed into
  /// place, so an interrupted run never leaves a truncated file behind.
  /// Returns false (after printing why) if any step fails.
  bool Write(const std::string& path) const;
};

}  // namespace bohm
