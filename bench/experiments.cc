#include "bench/experiments.h"

#include <algorithm>
#include <thread>

namespace bohm {
namespace bench {

namespace {

/// One level per count, setting `member` and printed as `key`.
std::vector<Level> Counts(const char* key, uint32_t PointSpec::*member,
                          const std::vector<uint32_t>& counts) {
  std::vector<Level> out;
  for (uint32_t n : counts) {
    out.push_back({{{key, std::to_string(n)}},
                   [member, n](PointSpec& p) { p.*member = n; }});
  }
  return out;
}

std::vector<Level> OnOff(const char* key, bool PointSpec::*member) {
  return {{{{key, "on"}}, [member](PointSpec& p) { p.*member = true; }},
          {{{key, "off"}}, [member](PointSpec& p) { p.*member = false; }}};
}

/// One level per value, printed as `key` = scale x value.
std::vector<Level> Values(const char* key, double PointSpec::*member,
                          const std::vector<double>& values, double scale,
                          int decimals) {
  std::vector<Level> out;
  for (double v : values) {
    out.push_back({{{key, Report::FormatDouble(scale * v, decimals)}},
                   [member, v](PointSpec& p) { p.*member = v; }});
  }
  return out;
}

/// Figures 5 and 6: the paper's top (theta=0.9) and bottom (theta=0).
std::vector<Level> ZipfContention() {
  return {{{{"contention", "high"}, {"theta", "0.90"}},
           [](PointSpec& p) { p.theta = 0.9; }},
          {{{"contention", "low"}, {"theta", "0.00"}},
           [](PointSpec& p) { p.theta = 0.0; }}};
}

/// No log, then asynchronous, then increasingly eager durability; acks
/// wait for durability, pricing "no acknowledged commit is ever lost".
std::vector<Level> LogModes() {
  std::vector<Level> out;
  for (auto [label, mode] : {std::pair{"nolog", LogMode::kOff},
                             std::pair{"fsync=none", LogMode::kFsyncNone},
                             std::pair{"fsync=group8", LogMode::kFsyncGroup8},
                             std::pair{"fsync=batch", LogMode::kFsyncBatch}}) {
    out.push_back({{{"mode", label}}, [mode](PointSpec& p) { p.log = mode; }});
  }
  return out;
}

std::vector<System> Systems(const std::vector<EngineKind>& kinds) {
  std::vector<System> out;
  for (EngineKind kind : kinds) {
    out.push_back({EngineKindName(kind), {},
                   [kind](PointSpec& p) { p.engine = kind; }});
  }
  return out;
}

/// Bohm with migration on or off, and enough feeders that generating
/// 8-RMW transactions does not become the bottleneck before CC does.
System HotspotBohm(const char* variant, bool adaptive) {
  return {std::string("Bohm-") + variant,
          {{"variant", variant}},
          [adaptive](PointSpec& p) {
            p.adaptive = adaptive;
            p.clients = std::max(2u, p.threads / 2);
          }};
}

}  // namespace

std::vector<Experiment> Experiments(bool smoke) {
  // Table sizes: the full value, or the CTest value under --smoke.
  const auto size = [smoke](uint64_t full, uint64_t tiny) {
    return smoke ? tiny : full;
  };
  // Powers of two up to the hardware's concurrency, or {1, 2} under
  // --smoke; fixed-thread experiments run at the largest.
  std::vector<uint32_t> sweep = {1, 2};
  if (!smoke) {
    sweep = {};
    const uint32_t cpus = std::max(1u, std::thread::hardware_concurrency());
    for (uint32_t t = 1; t <= cpus; t *= 2) sweep.push_back(t);
  }
  const auto threads = Counts("threads", &PointSpec::threads, sweep);
  const auto max_threads =
      Counts("threads", &PointSpec::threads, {sweep.back()});
  const auto cc_threads = Counts("cc_threads", &PointSpec::cc_threads,
                                 smoke ? std::vector<uint32_t>{1, 2}
                                       : std::vector<uint32_t>{1, 2, 4});
  const auto all = Systems({std::begin(kAllEngines), std::end(kAllEngines)});
  const auto bohm = Systems({EngineKind::kBohm});
  const uint64_t records = size(100'000, 512);
  const uint64_t customers = size(100'000, 1000);

  return {
      {.name = "fig4_cc_scalability",
       .title = "Figure 4: CC/execution interaction (10RMW, 8B, uniform)",
       .shape = "each CC series rises with execution threads, then "
                "plateaus at a CC capacity that grows with CC threads.",
       .base = {.records = size(1'000'000, 512), .record_size = 8,
                .adaptive = false},
       .axes = {cc_threads,
                Counts("exec_threads", &PointSpec::exec_threads, sweep)},
       .systems = bohm},
      {.name = "fig5_ycsb_10rmw",
       .title = "Figure 5: YCSB 10RMW vs. threads, theta=0.9 and theta=0",
       .shape = "2PL highest on this all-RMW workload (multi-version "
                "systems copy 1000-byte versions); Bohm > Hekaton and SI "
                "under high contention (no aborts).",
       .base = {.records = records},
       .axes = {ZipfContention(), threads},
       .systems = all,
       .extra_keys = {"p999_us"},
       .check_floor = true},
      {.name = "fig6_ycsb_2rmw8r",
       .title = "Figure 6: YCSB 2RMW-8R vs. threads, theta=0.9 and theta=0",
       .shape = "high contention: multi-version systems win, Bohm > SI "
                "(no ww-abort waste) > Hekaton; low contention: OCC best, "
                "Bohm close behind.",
       .base = {.workload = Workload::kYcsb2Rmw8R, .records = records},
       .axes = {ZipfContention(), threads},
       .systems = all},
      {.name = "fig7_theta_sweep",
       .title = "Figure 7: YCSB 2RMW-8R vs. contention (theta)",
       .shape = "Hekaton ~ SI (timestamp-counter bound) until high theta, "
                "then aborts dominate; Bohm degrades gracefully.",
       .base = {.workload = Workload::kYcsb2Rmw8R, .records = records},
       .axes = {Values("theta", &PointSpec::theta,
                       {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99}, 1, 2),
                max_threads},
       .systems = all},
      {.name = "fig8_readonly_mix",
       .title = "Figure 8: YCSB 10RMW + long read-only transactions (each "
                "reads 10,000 records, at most half the table)",
       .shape = "multi-version systems (Bohm, SI, Hekaton) dominate OCC "
                "and 2PL at small read-only fractions; all converge at 100%.",
       .base = {.workload = Workload::kYcsbMixed, .records = records},
       .axes = {Values("readonly_pct", &PointSpec::readonly_fraction,
                       {0.0, 0.01, 0.05, 0.2, 0.5, 1.0}, 100, 0),
                max_threads},
       .systems = all},
      {.name = "fig9_readonly_table",
       .title = "Figure 9: YCSB with 1% long read-only transactions",
       .shape = "paper (40 threads): Bohm 100%, SI 64.3%, Hekaton 60.6%, "
                "2PL 15.6%, OCC 8.9%.",
       .base = {.workload = Workload::kYcsbMixed,
                .records = records,
                .readonly_fraction = 0.01},
       .axes = {max_threads},
       // Bohm first: it is the 100% reference.
       .systems = Systems({EngineKind::kBohm, EngineKind::k2PL,
                           EngineKind::kOCC, EngineKind::kSI,
                           EngineKind::kHekaton}),
       .pct_of_first_system = true},
      {.name = "fig10_smallbank",
       .title = "Figure 10: SmallBank vs. threads, 50us spin per txn",
       .shape = "high contention: 2PL best, Bohm close, Hekaton/SI drop; "
                "low: 2PL/OCC/Bohm cluster, Hekaton/SI ~3x lower.",
       .base = {.workload = Workload::kSmallBank},
       .axes = {{{{{"contention", "high"}, {"customers", "50"}},
                  [](PointSpec& p) { p.records = 50; }},
                 {{{"contention", "low"},
                   {"customers", std::to_string(customers)}},
                  [customers](PointSpec& p) { p.records = customers; }}},
                threads},
       .systems = all},
      // Not a paper figure: static vs. adaptive partition -> CC-thread
      // map under a moving hot set. 64-byte records keep execution from
      // masking the CC stage. The smoke sizes (2 CC threads, 8 hot keys,
      // 1.05 trigger, fold every 2 batches) force migrations.
      {.name = "fig11_hotspot",
       .title = "Shifting hotspot: static vs. adaptive CC partition map",
       .shape = "static Bohm bottlenecks on the hot partitions' CC threads "
                "(high cc_imbalance); adaptive migrates them, closing the gap.",
       .base = {.workload = Workload::kHotspot,
                .records = size(100'000, 4096),
                .record_size = 64,
                .hot_keys = size(16, 8),
                .shift_period = size(50'000, 2000),
                .batch_size = static_cast<uint32_t>(size(256, 64)),
                .cc_interval = static_cast<uint32_t>(size(8, 2)),
                .max_imbalance = smoke ? 1.05 : 1.25},
       .axes = {smoke ? Counts("threads", &PointSpec::threads, {4}) : threads,
                {{{{"hot_keys", std::to_string(size(16, 8))},
                   {"shift_period", std::to_string(size(50'000, 2000))}},
                  [](PointSpec&) {}}}},
       .systems = {{"2PL",
                    {{"variant", "2PL"}},
                    [](PointSpec& p) { p.engine = EngineKind::k2PL; }},
                   HotspotBohm("static", false),
                   HotspotBohm("adaptive", true)},
       .extra_keys = {"cc_migrations", "cc_imbalance"},
       .smoke_measure_ms = 100,
       .check_migrations = true},
      {.name = "abl_annotation",
       .title = "Ablation: read-set annotation (hot 10RMW + 5% scans)",
       .shape = "annotation >= chain traversal; the gap grows with chains.",
       .base = {.workload = Workload::kYcsbMixed,
                .records = size(50'000, 512),
                .record_size = 64,
                .theta = 0.9,
                .readonly_fraction = 0.05},
       .axes = {OnOff("annotation", &PointSpec::annotation), max_threads},
       .systems = bohm},
      {.name = "abl_batch_size",
       .title = "Ablation: Bohm batch size (10RMW, 8B records, uniform)",
       .shape = "climbs steeply from batch=1, then saturates.",
       .base = {.records = records, .record_size = 8},
       .axes = {Counts("batch_size", &PointSpec::batch_size,
                       {1, 4, 16, 64, 256, 1024, 4096}),
                max_threads},
       .systems = bohm},
      {.name = "abl_commit_deps",
       .title = "Ablation: commit dependencies (2RMW-8R, theta=0.9)",
       .shape = "speculative reads of Preparing versions cut aborts.",
       .base = {.workload = Workload::kYcsb2Rmw8R,
                .records = size(10'000, 512),
                .record_size = 64,
                .theta = 0.9},
       .axes = {OnOff("speculation", &PointSpec::commit_deps), max_threads},
       .systems = Systems({EngineKind::kHekaton, EngineKind::kSI})},
      {.name = "abl_durability",
       .title = "Ablation: durable sequencer log (10RMW, 1000B, theta=0.9)",
       .shape = "fsync=none ~ nolog; group8 costs a few percent; "
                "fsync=batch is bound by sync latency (log_stall_us).",
       .base = {.records = records, .theta = 0.9},
       .axes = {LogModes(), max_threads},
       .systems = bohm,
       .extra_keys = {"log_bytes/s", "fsyncs/s", "log_stall_us"}},
      {.name = "abl_gc",
       .title = "Ablation: garbage collection (hot 10RMW, 1000B records)",
       .shape = "GC recycles nearly every superseded version at no "
                "throughput cost (free-list reuse beats arena growth).",
       .base = {.records = size(10'000, 512), .theta = 0.9},
       .axes = {OnOff("gc", &PointSpec::gc), max_threads},
       .systems = bohm,
       .extra_keys = {"gc_freed"}},
      {.name = "abl_preprocess",
       .title = "Ablation: CC interest pre-processing (1RMW, 8B, 2 exec)",
       .shape = "pre-processing stops scan cost growing with CC threads.",
       .base = {.exec_threads = 2, .workload = Workload::kYcsb1Rmw,
                .records = records, .record_size = 8, .adaptive = false},
       .axes = {cc_threads, OnOff("preprocessing", &PointSpec::preprocessing)},
       .systems = bohm},
      {.name = "lat_profile",
       .title = "Latency profile: YCSB 2RMW-8R, theta=0.9",
       .shape = "OCC/SI/Hekaton: retry tails; 2PL: lock waits; Bohm "
                "(submit->ack): batching delay, per stage in the stalls.",
       .base = {.workload = Workload::kYcsb2Rmw8R,
                .records = size(20'000, 512),
                .theta = 0.9},
       .axes = {max_threads},
       .systems = all,
       .extra_keys = {"lat_mean_us", "p999_us", "max_us", "seq_stall_us",
                      "cc_stall_us", "exec_stall_us"}},
  };
}

}  // namespace bench
}  // namespace bohm
