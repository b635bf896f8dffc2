// Figure 4: interaction between the concurrency-control and transaction-
// execution modules. Workload: 10 RMWs per transaction over 1M 8-byte
// records, uniform key choice (Section 4.1). The x-axis sweeps execution
// threads; one series per CC-thread count. Expected shape: throughput
// rises with execution threads until it matches the CC layer's capacity,
// then plateaus at a level that grows with the number of CC threads.
#include <cstdio>

#include "bench/bench_common.h"
#include "common/env.h"
#include "workload/micro.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  MicroConfig mcfg;
  mcfg.record_count = BenchRecords(1'000'000);
  const DriverOptions opt = BenchDriverOptions();
  std::vector<int> exec_threads = BenchThreads();
  std::vector<int> cc_threads =
      EnvIntList("BOHM_BENCH_CC_THREADS", {1, 2, 4});

  YcsbConfig ycfg;
  ycfg.record_count = mcfg.record_count;
  ycfg.record_size = 8;
  ycfg.theta = 0.0;

  JsonReport json("fig4_cc_scalability");
  std::vector<std::string> cols = {"exec_threads"};
  for (int cc : cc_threads) {
    cols.push_back("cc=" + std::to_string(cc) + " (txns/s)");
  }
  Report report(
      "Figure 4: CC/execution module interaction (10RMW, 8B records, "
      "uniform)",
      cols);

  for (int et : exec_threads) {
    std::vector<std::string> row = {std::to_string(et)};
    for (int cc : cc_threads) {
      BohmConfig bcfg;
      bcfg.cc_threads = static_cast<uint32_t>(cc);
      bcfg.exec_threads = static_cast<uint32_t>(et);
      bcfg.batch_size =
          static_cast<uint32_t>(EnvInt64("BOHM_BENCH_BATCH_SIZE", 256));
      BenchResult r = YcsbPoint(
          std::make_unique<BohmEngine>(YcsbCatalog(ycfg), bcfg), ycfg,
          YcsbSource(ycfg,
                     [](YcsbGenerator& gen) {
                       return gen.Make(YcsbGenerator::TxnType::k10Rmw);
                     }),
          opt);
      row.push_back(Report::FormatTput(r.Throughput()));
      json.AddPoint({{"cc_threads", std::to_string(cc)},
                     {"exec_threads", std::to_string(et)}},
                    "Bohm", r);
    }
    report.AddRow(std::move(row));
  }
  report.Print();
  json.Write();
  std::printf(
      "\nPaper shape: each series rises with execution threads, then "
      "plateaus at the CC layer's capacity; the plateau grows with CC "
      "threads (intra-transaction parallelism).\n");
  return 0;
}
