#include "harness/point.h"

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "workload/hotspot.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace bohm {

namespace {

std::unique_ptr<Engine> MakePointEngine(const PointSpec& p,
                                        const Catalog& catalog,
                                        const std::string& log_dir) {
  if (p.engine != EngineKind::kBohm) {
    return MakeExecutorEngine(p.engine, catalog, p.threads, p.commit_deps);
  }
  BohmConfig cfg = BohmSplit(p.threads);
  if (p.cc_threads != 0) {
    cfg.cc_threads = p.cc_threads;
    cfg.exec_threads = p.exec_threads;
  }
  cfg.batch_size = p.batch_size;
  cfg.adaptive.enabled = p.adaptive;
  cfg.adaptive.interval_batches = p.cc_interval;
  cfg.adaptive.max_imbalance = p.max_imbalance;
  cfg.gc_enabled = p.gc;
  cfg.read_annotation = p.annotation;
  cfg.interest_preprocessing = p.preprocessing;
  if (p.log != LogMode::kOff) {
    cfg.durability.enabled = true;
    cfg.durability.dir = log_dir;
    cfg.durability.fsync_policy = p.log == LogMode::kFsyncNone
                                      ? FsyncPolicy::kNone
                                      : FsyncPolicy::kGroup;
    // Group commit of 8, or of 1 (an fsync after every batch record).
    if (p.log == LogMode::kFsyncBatch) cfg.durability.group_size = 1;
  }
  return std::make_unique<BohmEngine>(catalog, cfg);
}

/// An engine's Load as the sink the workload loaders take.
auto LoadInto(Engine& engine) {
  return [&engine](TableId t, Key k, const void* payload) {
    return engine.Load(t, k, payload);
  };
}

/// One generator per client, seeded `seed + client`, drawing with `make`.
template <typename Gen, typename Cfg, typename MakeFn>
TxnSourceMaker Source(const Cfg& cfg, uint64_t seed, MakeFn make) {
  return [cfg, seed, make](uint32_t client) -> TxnSource {
    auto gen = std::make_shared<Gen>(cfg, seed + client);
    return [gen, make]() { return make(*gen); };
  };
}

}  // namespace

uint32_t ClampScanSize(uint32_t scan_size, uint64_t records) {
  const uint64_t cap = records / 2 == 0 ? 1 : records / 2;
  return static_cast<uint32_t>(scan_size < cap ? scan_size : cap);
}

BenchResult RunPoint(const PointSpec& p, const DriverOptions& opt) {
  DriverOptions run = opt;
  if (p.clients != 0) run.clients = p.clients;
  const std::string log_dir =
      (std::filesystem::temp_directory_path() /
       ("bohm_point_log_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(log_dir);

  Catalog catalog;
  std::function<void(Engine&)> load;
  TxnSourceMaker maker;
  if (p.workload == Workload::kSmallBank) {
    SmallBankConfig cfg;
    cfg.customers = p.records;
    cfg.spin_us = 50;  // Section 4.3
    catalog = SmallBankCatalog(cfg);
    load = [cfg](Engine& e) { (void)SmallBankLoad(cfg, LoadInto(e)); };
    maker = Source<SmallBankGenerator>(
        cfg, 0x5b000, [](SmallBankGenerator& g) { return g.Make(); });
  } else if (p.workload == Workload::kHotspot) {
    HotspotConfig cfg;
    cfg.record_count = p.records;
    cfg.record_size = p.record_size;
    cfg.hot_keys = p.hot_keys;
    cfg.shift_period = p.shift_period;
    catalog = YcsbCatalog(cfg.Ycsb());
    load = [cfg](Engine& e) { (void)YcsbLoad(cfg.Ycsb(), LoadInto(e)); };
    maker = Source<HotspotGenerator>(
        cfg, 0x407000, [](HotspotGenerator& g) { return g.Make(); });
  } else {
    YcsbConfig cfg;
    cfg.record_count = p.records;
    cfg.record_size = p.record_size;
    cfg.theta = p.theta;
    cfg.scan_size = ClampScanSize(10'000, p.records);
    catalog = YcsbCatalog(cfg);
    load = [cfg](Engine& e) { (void)YcsbLoad(cfg, LoadInto(e)); };
    maker = Source<YcsbGenerator>(
        cfg, 0x9000,
        [w = p.workload, f = p.readonly_fraction,
         size = p.record_size](YcsbGenerator& g) -> ProcedurePtr {
          switch (w) {
            case Workload::kYcsb2Rmw8R:
              return g.Make(YcsbGenerator::TxnType::k2Rmw8R);
            case Workload::kYcsbMixed:
              return g.MakeMixed(f);
            case Workload::kYcsb1Rmw:
              // Single-record transactions maximize the share of CC work
              // that is pure scanning: with m CC threads, ~1/m of scans
              // find work.
              return std::make_unique<YcsbRmwProcedure>(
                  g.DrawDistinctKeys(1), size);
            default:
              return g.Make(YcsbGenerator::TxnType::k10Rmw);
          }
        });
  }

  std::unique_ptr<Engine> engine = MakePointEngine(p, catalog, log_dir);
  load(*engine);
  (void)engine->Start();
  const BenchResult r = RunBench(*engine, maker, run);
  engine.reset();  // stopped before its log directory goes
  std::filesystem::remove_all(log_dir);
  return r;
}

}  // namespace bohm
