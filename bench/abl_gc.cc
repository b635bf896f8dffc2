// Ablation: Condition-3 garbage collection (Section 3.3.2). Hot-key
// updates create versions at the full transaction rate; with GC on,
// versions are recycled through thread-local free lists (bounded memory);
// with GC off, every version lives forever (the configuration the paper
// uses for its Hekaton/SI baselines). Reports throughput and version
// recycling volume.
#include <cstdio>

#include "bench/bench_common.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  YcsbConfig cfg;
  cfg.record_count = BenchRecords(10'000);
  cfg.record_size = 1000;
  cfg.theta = 0.9;  // hot keys: maximal version churn
  const DriverOptions opt = BenchDriverOptions();
  const int threads = BenchThreads().back();
  auto fn = [](YcsbGenerator& gen) {
    return gen.Make(YcsbGenerator::TxnType::k10Rmw);
  };

  Report report("Ablation: garbage collection (hot 10RMW, 1000B records)",
                {"gc", "throughput (txns/s)", "versions recycled"});
  for (bool gc : {true, false}) {
    BohmConfig bcfg = BohmSplit(static_cast<uint32_t>(threads));
    bcfg.gc_enabled = gc;

    BohmEngine engine(YcsbCatalog(cfg), bcfg);
    (void)YcsbLoad(cfg, [&](TableId t, Key k, const void* p) {
      return engine.Load(t, k, p);
    });
    (void)engine.Start();
    BenchResult r = RunBench(engine, YcsbSource(cfg, fn), opt);
    uint64_t freed = engine.gc_freed_versions();

    report.AddRow({gc ? "on" : "off", Report::FormatTput(r.Throughput()),
                   std::to_string(freed)});
  }
  report.Print();
  std::printf(
      "\nExpected: GC recycles nearly every superseded version (bounded "
      "memory) at no throughput cost — typically a gain, since thread-local "
      "free-list reuse beats unbounded arena growth. The paper notes GC was "
      "a major cost for Hekaton; Bohm's Condition-3 scheme is nearly free.\n");
  return 0;
}
