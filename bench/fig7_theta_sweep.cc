// Figure 7: YCSB 2RMW-8R throughput at a fixed (maximal) thread count
// while sweeping the zipfian contention parameter theta from 0 to ~1.
// Paper shape: Hekaton and SI sit on top of each other across low/medium
// theta — both pinned by the global timestamp counter — and only diverge
// (downward) under high contention when aborts take over.
#include <cstdio>

#include "bench/bench_common.h"
#include "common/env.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  const DriverOptions opt = BenchDriverOptions();
  const int threads = BenchThreads().back();
  std::vector<double> thetas = {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99};

  auto fn = [](YcsbGenerator& gen) {
    return gen.Make(YcsbGenerator::TxnType::k2Rmw8R);
  };

  JsonReport json("fig7_theta_sweep");
  std::vector<std::string> cols = {"theta"};
  for (EngineKind kind : kAllEngines) {
    cols.push_back(std::string(EngineKindName(kind)) + " (txns/s)");
  }
  cols.push_back("Bohm p50(us)");
  cols.push_back("Bohm p99(us)");
  Report report("Figure 7: YCSB 2RMW-8R vs. contention (theta), " +
                    std::to_string(threads) + " threads",
                cols);

  for (double theta : thetas) {
    YcsbConfig cfg;
    cfg.record_count = BenchRecords(100'000);
    cfg.record_size = 1000;
    cfg.theta = theta;
    std::vector<std::string> row = {Report::FormatDouble(theta, 2)};
    uint64_t bohm_p50 = 0, bohm_p99 = 0;
    for (EngineKind kind : kAllEngines) {
      BenchResult r = YcsbPoint(
          MakeEngine(kind, YcsbCatalog(cfg), static_cast<uint32_t>(threads)),
          cfg, YcsbSource(cfg, fn), opt);
      row.push_back(Report::FormatTput(r.Throughput()));
      if (kind == EngineKind::kBohm) {
        bohm_p50 = r.P50Us();
        bohm_p99 = r.P99Us();
      }
      json.AddPoint({{"theta", Report::FormatDouble(theta, 2)},
                     {"threads", std::to_string(threads)}},
                    EngineKindName(kind), r);
    }
    row.push_back(std::to_string(bohm_p50));
    row.push_back(std::to_string(bohm_p99));
    report.AddRow(std::move(row));
  }
  report.Print();
  json.Write();
  std::printf(
      "\nPaper shape: Hekaton and SI nearly identical until high theta "
      "(timestamp-counter bound), then drop as aborts dominate; Bohm "
      "degrades gracefully.\n");
  return 0;
}
