// Shifting-hotspot benchmark (not a paper figure — the adaptive-CC
// ablation): most traffic hits a small moving window of keys, so a
// handful of physical partitions carry the load and the hot set changes
// mid-run. Compares Bohm with a static partition -> CC-thread map against
// Bohm with adaptive repartitioning on the same physical partition layout
// (plus 2PL as the partitioning-oblivious reference). The JSON rows carry cc_migrations,
// cc_imbalance and cc_stall_us so the win is attributable: static Bohm
// shows a high imbalance gauge and execution stalled on the hot CC
// thread's watermark; adaptive shows migrations > 0 and the gauge pulled
// back toward 1.0.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "common/env.h"
#include "workload/hotspot.h"

using namespace bohm;
using namespace bohm::bench;

namespace {

TxnSourceMaker HotspotSource(const HotspotConfig& cfg) {
  return [cfg](uint32_t tid) -> TxnSource {
    auto gen = std::make_shared<HotspotGenerator>(cfg, 0x407000 + tid);
    return [gen]() { return gen->Make(); };
  };
}

/// Bohm with `threads` split between CC and execution, migration on or
/// off on the same physical partition layout.
std::unique_ptr<Engine> HotspotBohm(const HotspotConfig& cfg,
                                    uint32_t threads, bool adaptive) {
  BohmConfig bcfg = BohmSplit(threads);
  bcfg.adaptive.enabled = adaptive;
  bcfg.adaptive.max_imbalance =
      EnvInt64("BOHM_BENCH_MAX_IMB_X100", 125) / 100.0;
  bcfg.adaptive.interval_batches =
      static_cast<uint32_t>(EnvInt64("BOHM_BENCH_CC_INTERVAL", 8));
  return std::make_unique<BohmEngine>(YcsbCatalog(cfg.Ycsb()), bcfg);
}

}  // namespace

int main() {
  const DriverOptions opt = BenchDriverOptions();
  const HotspotConfig base = [] {
    HotspotConfig cfg;
    cfg.record_count = BenchRecords(100'000);
    // Smaller records than YCSB's 1000 bytes: this bench measures the CC
    // stage, and full-record copies would make execution the bottleneck,
    // masking any CC (im)balance.
    cfg.record_size =
        static_cast<uint32_t>(EnvInt64("BOHM_BENCH_RECORD_SIZE", 64));
    cfg.hot_keys =
        static_cast<uint64_t>(EnvInt64("BOHM_BENCH_HOT_KEYS", 16));
    cfg.shift_period = static_cast<uint64_t>(
        EnvInt64("BOHM_BENCH_SHIFT_PERIOD", 50'000));
    return cfg;
  }();

  JsonReport json("fig11_hotspot");
  Report report(
      "Shifting hotspot: " + std::to_string(base.hot_keys) +
          " hot keys, shift every " + std::to_string(base.shift_period) +
          " draws",
      {"threads", "2PL (txns/s)", "Bohm-static (txns/s)",
       "Bohm-adaptive (txns/s)", "migrations", "imbalance"});

  for (int threads : BenchThreads()) {
    const auto t = static_cast<uint32_t>(threads);
    auto params = [&](const char* variant) {
      return JsonReport::Params{
          {"threads", std::to_string(threads)},
          {"hot_keys", std::to_string(base.hot_keys)},
          {"shift_period", std::to_string(base.shift_period)},
          {"variant", variant}};
    };

    BenchResult twopl =
        YcsbPoint(MakeEngine(EngineKind::k2PL, YcsbCatalog(base.Ycsb()), t),
                  base.Ycsb(), HotspotSource(base), opt);
    json.AddPoint(params("2PL"), "2PL", twopl);

    // Generating an 8-RMW hotspot transaction is not free; two feeders can
    // become the bottleneck before the CC stage does at higher thread
    // counts, which would mask the effect this bench measures.
    DriverOptions bohm_opt = opt;
    bohm_opt.clients = t / 2 < 2 ? 2 : t / 2;

    BenchResult stat = YcsbPoint(HotspotBohm(base, t, /*adaptive=*/false),
                                 base.Ycsb(), HotspotSource(base), bohm_opt);
    json.AddPoint(params("static"), "Bohm-static", stat);

    BenchResult adpt = YcsbPoint(HotspotBohm(base, t, /*adaptive=*/true),
                                 base.Ycsb(), HotspotSource(base), bohm_opt);
    json.AddPoint(params("adaptive"), "Bohm-adaptive", adpt);

    report.AddRow({std::to_string(threads),
                   Report::FormatTput(twopl.Throughput()),
                   Report::FormatTput(stat.Throughput()),
                   Report::FormatTput(adpt.Throughput()),
                   std::to_string(adpt.cc_migrations),
                   Report::FormatDouble(
                       static_cast<double>(adpt.cc_imbalance_x1000) / 1000.0,
                       3)});
  }
  report.Print();
  json.Write();
  std::printf(
      "\nExpected shape: static Bohm bottlenecks on the CC threads owning "
      "the hot partitions (high cc_imbalance, exec stalled on their "
      "watermark); adaptive migrates the hot partitions between batches "
      "and closes the gap.\n");
  return 0;
}
