// Figure 6: YCSB 2RMW-8R throughput vs. thread count, high contention
// (theta = 0.9, top) and low contention (theta = 0, bottom).
// Paper shape: under high contention the multi-versioned systems win and
// Bohm beats even SI (SI wastes work on ww-conflict aborts); under low
// contention OCC wins narrowly while Hekaton/SI flatten on their global
// timestamp counter.
#include <cstdio>

#include "bench/bench_common.h"

using namespace bohm;
using namespace bohm::bench;

namespace {

void RunContention(double theta, const char* label, const char* tag,
                   JsonReport& json) {
  YcsbConfig cfg;
  cfg.record_count = BenchRecords(100'000);
  cfg.record_size = 1000;
  cfg.theta = theta;
  const DriverOptions opt = BenchDriverOptions();
  auto fn = [](YcsbGenerator& gen) {
    return gen.Make(YcsbGenerator::TxnType::k2Rmw8R);
  };

  std::vector<std::string> cols = {"threads"};
  for (EngineKind kind : kAllEngines) {
    cols.push_back(std::string(EngineKindName(kind)) + " (txns/s)");
    cols.push_back(std::string(EngineKindName(kind)) + " abort%");
  }
  Report report(std::string("Figure 6 (") + label +
                    "): YCSB 2RMW-8R, theta=" + Report::FormatDouble(theta, 2),
                cols);

  for (int threads : BenchThreads()) {
    std::vector<std::string> row = {std::to_string(threads)};
    for (EngineKind kind : kAllEngines) {
      BenchResult r = YcsbPoint(
          MakeEngine(kind, YcsbCatalog(cfg), static_cast<uint32_t>(threads)),
          cfg, YcsbSource(cfg, fn), opt);
      row.push_back(Report::FormatTput(r.Throughput()));
      row.push_back(Report::FormatDouble(100.0 * r.AbortRate(), 1));
      json.AddPoint({{"contention", tag},
                     {"theta", Report::FormatDouble(theta, 2)},
                     {"threads", std::to_string(threads)}},
                    EngineKindName(kind), r);
    }
    report.AddRow(std::move(row));
  }
  report.Print();
}

}  // namespace

int main() {
  JsonReport json("fig6_ycsb_2rmw8r");
  RunContention(0.9, "top: high contention", "high", json);
  RunContention(0.0, "bottom: low contention", "low", json);
  json.Write();
  std::printf(
      "\nPaper shape: high contention — multi-version systems beat "
      "single-version; Bohm > SI (no ww-abort waste) > Hekaton. Low "
      "contention — OCC best, Bohm close behind.\n");
  return 0;
}
