// Ablation: batch size (Section 3.2.4). Bohm amortizes one CC barrier per
// batch; tiny batches re-introduce per-transaction coordination, huge
// batches add latency but little throughput. Sweep batch size on the
// 10RMW microbenchmark.
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
  const int threads = BenchThreads().back();
  auto fn = [](YcsbGenerator& gen) {
    return gen.Make(YcsbGenerator::TxnType::k10Rmw);
  };

  Report report("Ablation: Bohm batch size (10RMW, 8B records, uniform)",
                {"batch_size", "throughput (txns/s)"});
  for (int batch : {1, 4, 16, 64, 256, 1024, 4096}) {
    BohmConfig bcfg = BohmSplit(static_cast<uint32_t>(threads));
    bcfg.batch_size = static_cast<uint32_t>(batch);
    BenchResult r =
        YcsbPoint(std::make_unique<BohmEngine>(YcsbCatalog(cfg), bcfg), cfg,
                  YcsbSource(cfg, fn), opt);
    report.AddRow(
        {std::to_string(batch), Report::FormatTput(r.Throughput())});
  }
  report.Print();
  std::printf(
      "\nExpected: throughput climbs steeply away from batch=1 (barrier "
      "per transaction) and saturates once the barrier cost is amortized.\n");
  return 0;
}
