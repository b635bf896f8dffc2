// Figure 8: throughput with long-running read-only transactions mixed
// into a low-contention 10RMW update stream. The read-only fraction
// sweeps 0% to 100% (the paper plots 1%..100% on a log axis). Read-only
// transactions read `scan_size` uniformly-chosen records (paper: 10,000).
// Paper shape: with a small read-only fraction, the multi-version systems
// beat the single-version systems by ~an order of magnitude; at 100%
// read-only all systems converge.
#include <cstdio>

#include "bench/bench_common.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  YcsbConfig cfg;
  cfg.record_count = BenchRecords(100'000);
  cfg.record_size = 1000;
  cfg.theta = 0.0;  // low-contention updates (Section 4.2.3)
  cfg.scan_size = BenchScanSize(cfg.record_count);
  const DriverOptions opt = BenchDriverOptions();
  const int threads = BenchThreads().back();

  std::vector<double> fractions = {0.0, 0.01, 0.05, 0.2, 0.5, 1.0};

  JsonReport json("fig8_readonly_mix");
  std::vector<std::string> cols = {"readonly%"};
  for (EngineKind kind : kAllEngines) {
    cols.push_back(std::string(EngineKindName(kind)) + " (txns/s)");
  }
  Report report(
      "Figure 8: YCSB 10RMW + long read-only transactions (scan " +
          std::to_string(cfg.scan_size) + " records), " +
          std::to_string(threads) + " threads",
      cols);

  for (double frac : fractions) {
    auto fn = [frac](YcsbGenerator& gen) { return gen.MakeMixed(frac); };
    std::vector<std::string> row = {Report::FormatDouble(100 * frac, 0)};
    for (EngineKind kind : kAllEngines) {
      BenchResult r = YcsbPoint(
          MakeEngine(kind, YcsbCatalog(cfg), static_cast<uint32_t>(threads)),
          cfg, YcsbSource(cfg, fn), opt);
      row.push_back(Report::FormatTput(r.Throughput()));
      json.AddPoint({{"readonly_pct", Report::FormatDouble(100 * frac, 0)},
                     {"threads", std::to_string(threads)}},
                    EngineKindName(kind), r);
    }
    report.AddRow(std::move(row));
  }
  report.Print();
  json.Write();
  std::printf(
      "\nPaper shape: multi-version systems (Bohm, SI, Hekaton) dominate "
      "single-version (OCC, 2PL) when a small fraction of transactions is "
      "read-only; all converge at 100%% read-only.\n");
  return 0;
}
