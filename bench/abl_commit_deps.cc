// Ablation: commit dependencies (speculative reads of uncommitted data)
// in the Hekaton/SI baselines. The paper's implementations include this
// optimization and credit it for Hekaton/SI sustaining throughput at
// slightly higher thread counts than OCC under contention (Section
// 4.2.1). Without speculation, a reader skips Preparing versions and
// reads the older committed version instead, which under Hekaton
// validation turns into extra aborts.
#include <cstdio>

#include "bench/bench_common.h"
#include "mvocc/engine.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  YcsbConfig cfg;
  cfg.record_count = BenchRecords(10'000);
  cfg.record_size = 64;
  cfg.theta = 0.9;  // contention makes speculation matter
  const DriverOptions opt = BenchDriverOptions();
  const int threads = BenchThreads().back();

  Report report(
      "Ablation: commit dependencies (YCSB 2RMW-8R, theta=0.9, " +
          std::to_string(threads) + " threads)",
      {"engine", "speculation", "throughput (txns/s)", "abort%"});

  for (MVOccMode mode :
       {MVOccMode::kHekaton, MVOccMode::kSnapshotIsolation}) {
    for (bool spec : {true, false}) {
      MVOccConfig mcfg;
      mcfg.mode = mode;
      mcfg.threads = static_cast<uint32_t>(threads);
      mcfg.commit_dependencies = spec;
      auto engine = std::make_unique<MVOccEngine>(YcsbCatalog(cfg), mcfg);
      const char* name = engine->name();
      BenchResult r = YcsbPoint(
          std::move(engine), cfg,
          YcsbSource(cfg,
                     [](YcsbGenerator& gen) {
                       return gen.Make(YcsbGenerator::TxnType::k2Rmw8R);
                     }),
          opt);
      report.AddRow({name, spec ? "on" : "off",
                     Report::FormatTput(r.Throughput()),
                     Report::FormatDouble(100 * r.AbortRate(), 1)});
    }
  }
  report.Print();
  std::printf(
      "\nExpected: speculation reduces aborts under contention (reads of "
      "Preparing writers' versions commit together instead of failing "
      "validation).\n");
  return 0;
}
