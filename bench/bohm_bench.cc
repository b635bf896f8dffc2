// Runs the experiment table (bench/experiments.cc), one row per point.
//
//   bohm_bench [--smoke] [--json-dir DIR] [NAME...]
//
// No NAME runs every experiment. --json-dir also writes each experiment's
// points to DIR/BENCH_<NAME>.json. --smoke runs the CTest sizes and checks
// them (SmokeFailures). Exits non-zero if a check or a JSON write fails.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench/experiments.h"

#ifndef BOHM_THROUGHPUT_FLOOR
#define BOHM_THROUGHPUT_FLOOR 0
#endif

using namespace bohm;
using namespace bohm::bench;

namespace {

// Set by CMake per build type (0 = off); far below the ~323K txn/s the
// barriered pipeline measured, since 50 ms windows are noisy.
constexpr double kThroughputFloor = BOHM_THROUGHPUT_FLOOR;

JsonReport RunExperiment(const Experiment& x, bool smoke) {
  DriverOptions window;
  window.warmup_ms = smoke ? 10 : 100;
  window.measure_ms = smoke ? x.smoke_measure_ms : 300;
  JsonReport out{.figure = x.name};
  std::vector<size_t> level(x.axes.size(), 0);
  for (bool done = false; !done;) {
    PointSpec base = x.base;
    Params params;
    for (size_t a = 0; a < x.axes.size(); ++a) {
      const Level& l = x.axes[a][level[a]];
      l.apply(base);
      params.insert(params.end(), l.params.begin(), l.params.end());
    }
    for (const System& s : x.systems) {
      PointSpec p = base;
      s.apply(p);
      Params point_params = params;
      point_params.insert(point_params.end(), s.params.begin(), s.params.end());
      out.points.push_back({point_params, s.label, RunPoint(p, window)});
    }
    // Advance the axes like an odometer, the last axis fastest.
    done = true;
    for (size_t a = x.axes.size(); done && a-- > 0;) {
      done = ++level[a] == x.axes[a].size();
      if (done) level[a] = 0;
    }
  }
  return out;
}

/// An extra key's cell: its PointFields value ("<key>/s": per second).
std::string ExtraCell(const BenchResult& r, const std::string& key) {
  const bool rate = key.ends_with("/s");
  const std::string name = rate ? key.substr(0, key.size() - 2) : key;
  for (const auto& [k, v] : PointFields(r)) {
    if (k != name) continue;
    if (!rate) return v;
    return Report::FormatTput(r.seconds > 0 ? std::stod(v) / r.seconds : 0);
  }
  return "?";  // not a PointFields key
}

void PrintTable(const Experiment& x, const JsonReport& report) {
  std::vector<std::string> cols;
  for (const auto& [key, value] : report.points.front().params) {
    cols.push_back(key);
  }
  cols.insert(cols.end(), {"system", "txns/s", "abort%", "p50(us)", "p99(us)"});
  cols.insert(cols.end(), x.extra_keys.begin(), x.extra_keys.end());
  if (x.pct_of_first_system) cols.push_back("% of " + x.systems[0].label);

  Report table(x.title, cols);
  double reference = 0;
  for (const JsonReport::Point& m : report.points) {
    const BenchResult& r = m.result;
    std::vector<std::string> row;
    for (const auto& param : m.params) row.push_back(param.second);
    row.insert(row.end(), {m.system, Report::FormatTput(r.Throughput()),
                           Report::FormatDouble(100.0 * r.AbortRate(), 1),
                           std::to_string(r.P50Us()),
                           std::to_string(r.P99Us())});
    for (const std::string& key : x.extra_keys) {
      row.push_back(ExtraCell(r, key));
    }
    if (x.pct_of_first_system) {
      // Systems are the innermost loop: the first system's point of each
      // parameter combination comes first.
      if (m.system == x.systems[0].label) reference = r.Throughput();
      const double pct = reference > 0 ? 100 * r.Throughput() / reference : 0;
      row.push_back(Report::FormatDouble(pct, 2) + "%");
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\nExpected shape: %s\n", x.shape);
}

/// The --smoke checks: every Bohm point has a latency histogram with
/// 0 < p50 <= p99 <= p999; check_migrations experiments migrate; the best
/// 1-thread Bohm point of check_floor experiments reaches the floor.
/// Returns the failures.
int SmokeFailures(const Experiment& x, const JsonReport& report) {
  int failures = 0;
  uint64_t migrations = 0;
  double best_1t = 0;
  const std::pair<std::string, std::string> one_thread{"threads", "1"};
  for (const JsonReport::Point& m : report.points) {
    if (!m.system.starts_with("Bohm")) continue;  // incl. Bohm-static etc.
    const BenchResult& r = m.result;
    if (r.latency_us.count() == 0 || r.P50Us() == 0 ||
        r.P50Us() > r.P99Us() || r.P99Us() > r.P999Us()) {
      std::string where = m.system;
      for (const auto& [k, v] : m.params) where += " " + k + "=" + v;
      std::printf("FAIL: %s %s: %" PRIu64 " latency samples, p50 %" PRIu64
                  " p99 %" PRIu64 " p999 %" PRIu64 "\n",
                  x.name, where.c_str(), r.latency_us.count(), r.P50Us(),
                  r.P99Us(), r.P999Us());
      ++failures;
    }
    migrations += r.cc_migrations;
    if (std::ranges::count(m.params, one_thread) > 0) {
      best_1t = std::max(best_1t, r.Throughput());
    }
  }
  if (x.check_migrations) {
    std::printf("%s: %s: Bohm points reported %" PRIu64 " migrations\n",
                migrations > 0 ? "OK" : "FAIL", x.name, migrations);
    failures += migrations > 0 ? 0 : 1;
  }
  if (x.check_floor && kThroughputFloor > 0) {
    const bool ok = best_1t >= kThroughputFloor;
    std::printf("%s: %s: best 1-thread Bohm throughput %.0f txn/s, floor "
                "%.0f\n",
                ok ? "OK" : "FAIL", x.name, best_1t, kThroughputFloor);
    failures += ok ? 0 : 1;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_dir;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json-dir" && i + 1 < argc) {
      json_dir = argv[++i];
    } else {
      names.push_back(arg);  // an unknown flag matches no experiment
    }
  }

  const std::vector<Experiment> table = Experiments(smoke);
  std::vector<const Experiment*> selected;
  for (const Experiment& x : table) {
    if (names.empty() || std::ranges::count(names, x.name) > 0) {
      selected.push_back(&x);
    }
  }
  if (selected.size() < names.size()) {
    std::fprintf(stderr,
                 "usage: bohm_bench [--smoke] [--json-dir DIR] [NAME...]\n"
                 "experiments:");
    for (const Experiment& x : table) std::fprintf(stderr, " %s", x.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  // A directory that cannot be made shows up as failed JSON writes.
  std::error_code ignored;
  if (!json_dir.empty()) std::filesystem::create_directories(json_dir, ignored);

  int failures = 0;
  for (const Experiment* x : selected) {
    const JsonReport report = RunExperiment(*x, smoke);
    PrintTable(*x, report);
    if (!json_dir.empty() &&
        !report.Write(json_dir + "/BENCH_" + x->name + ".json")) {
      ++failures;
    }
    if (smoke) failures += SmokeFailures(*x, report);
  }
  std::printf("\n%s: %d failure(s)\n", failures == 0 ? "OK" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
