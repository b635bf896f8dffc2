// Ablation: the read-set annotation optimization (Section 3.2.3). With
// annotation on, a transaction gets a direct reference to the version it
// must read; with annotation off, execution threads traverse the version
// chain. The paper credits this optimization for Bohm's margin over
// Hekaton/SI in the long-read-only experiment (Section 4.2.3), so the
// ablation uses that workload: hot updates + scans.
#include <cstdio>

#include "bench/bench_common.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  YcsbConfig cfg;
  cfg.record_count = BenchRecords(50'000);
  cfg.record_size = 64;
  cfg.theta = 0.9;  // hot keys => long version chains
  cfg.scan_size = BenchScanSize(cfg.record_count);
  const DriverOptions opt = BenchDriverOptions();
  const int threads = BenchThreads().back();
  auto fn = [](YcsbGenerator& gen) { return gen.MakeMixed(0.05); };

  Report report(
      "Ablation: read-set annotation (hot 10RMW + 5% scans, theta=0.9)",
      {"annotation", "throughput (txns/s)"});
  for (bool annotation : {true, false}) {
    BohmConfig bcfg = BohmSplit(static_cast<uint32_t>(threads));
    bcfg.read_annotation = annotation;
    BenchResult r =
        YcsbPoint(std::make_unique<BohmEngine>(YcsbCatalog(cfg), bcfg), cfg,
                  YcsbSource(cfg, fn), opt);
    report.AddRow({annotation ? "on" : "off",
                   Report::FormatTput(r.Throughput())});
  }
  report.Print();
  std::printf(
      "\nExpected: annotation >= traversal; the gap grows with version "
      "chain length (hot keys, GC lag).\n");
  return 0;
}
