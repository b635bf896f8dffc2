// Ablation: transaction pre-processing (Section 3.2.2). Without it,
// every CC thread scans every transaction's read/write set to find keys
// in its partition — serially-replicated work that Amdahl's law turns
// into a ceiling as CC threads grow. With it, the sequencer annotates
// each transaction with the CC threads it concerns, and foreign
// transactions are skipped with one bit test.
#include <cstdio>

#include "bench/bench_common.h"
#include "common/env.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  YcsbConfig cfg;
  cfg.record_count = BenchRecords(100'000);
  cfg.record_size = 8;
  cfg.theta = 0.0;
  const DriverOptions opt = BenchDriverOptions();
  auto fn = [](YcsbGenerator& gen) {
    // Single-record transactions maximize the fraction of CC work that is
    // pure scanning: with m CC threads, only ~1/m of scans find work.
    return std::make_unique<YcsbRmwProcedure>(gen.DrawDistinctKeys(1), 8);
  };

  std::vector<int> cc_threads = EnvIntList("BOHM_BENCH_CC_THREADS", {1, 2, 4});

  std::vector<std::string> cols = {"cc_threads", "preprocessing on (txns/s)",
                                   "preprocessing off (txns/s)"};
  Report report("Ablation: CC interest pre-processing (1RMW, 8B records)",
                cols);
  for (int cc : cc_threads) {
    std::vector<std::string> row = {std::to_string(cc)};
    for (bool pre : {true, false}) {
      BohmConfig bcfg;
      bcfg.cc_threads = static_cast<uint32_t>(cc);
      bcfg.exec_threads = 2;
      bcfg.interest_preprocessing = pre;
      BenchResult r =
          YcsbPoint(std::make_unique<BohmEngine>(YcsbCatalog(cfg), bcfg), cfg,
                    YcsbSource(cfg, fn), opt);
      row.push_back(Report::FormatTput(r.Throughput()));
    }
    report.AddRow(std::move(row));
  }
  report.Print();
  std::printf(
      "\nExpected: with pre-processing the per-CC-thread scan cost stops "
      "growing with thread count (the paper's proposed fix for the "
      "every-thread-examines-every-transaction bottleneck).\n");
  return 0;
}
