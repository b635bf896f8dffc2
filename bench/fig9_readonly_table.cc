// Figure 9 (table): YCSB throughput with 1% long-running read-only
// transactions — the same rows the paper prints: absolute throughput per
// system plus each system's throughput as a percentage of Bohm's.
// Paper values for reference: Bohm 181,565 (100%); SI 64.32%; Hekaton
// 60.64%; 2PL 15.64%; OCC 8.89%.
#include <cstdio>

#include "bench/bench_common.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  YcsbConfig cfg;
  cfg.record_count = BenchRecords(100'000);
  cfg.record_size = 1000;
  cfg.theta = 0.0;
  cfg.scan_size = BenchScanSize(cfg.record_count);
  const DriverOptions opt = BenchDriverOptions();
  const int threads = BenchThreads().back();
  auto fn = [](YcsbGenerator& gen) { return gen.MakeMixed(0.01); };
  auto point = [&](EngineKind kind) {
    return YcsbPoint(
        MakeEngine(kind, YcsbCatalog(cfg), static_cast<uint32_t>(threads)),
        cfg, YcsbSource(cfg, fn), opt);
  };

  // Bohm first: it is the 100% reference.
  BenchResult bohm_r = point(EngineKind::kBohm);
  const double bohm_tput = bohm_r.Throughput();

  JsonReport json("fig9_readonly_table");
  json.AddPoint({{"threads", std::to_string(threads)}}, "Bohm", bohm_r);
  Report report(
      "Figure 9: YCSB throughput with 1% long read-only transactions, " +
          std::to_string(threads) + " threads",
      {"System", "Throughput (txns/sec)", "% Bohm's Throughput"});
  report.AddRow({"Bohm", Report::FormatTput(bohm_tput), "100%"});
  for (EngineKind kind : kAllEngines) {
    if (kind == EngineKind::kBohm) continue;
    BenchResult r = point(kind);
    double pct = bohm_tput > 0 ? 100.0 * r.Throughput() / bohm_tput : 0;
    report.AddRow({EngineKindName(kind), Report::FormatTput(r.Throughput()),
                   Report::FormatDouble(pct, 2) + "%"});
    json.AddPoint({{"threads", std::to_string(threads)}},
                  EngineKindName(kind), r);
  }
  report.Print();
  json.Write();
  std::printf(
      "\nPaper row order (40 threads): Bohm 100%%, SI 64.3%%, Hekaton "
      "60.6%%, 2PL 15.6%%, OCC 8.9%% — multi-version systems ~an order of "
      "magnitude above single-version ones.\n");
  return 0;
}
