// Shared plumbing for the figure/table benchmarks: construct + load an
// engine, run one measurement point, tear it down. Every point uses a
// fresh engine instance so no state leaks across points (the paper's
// baselines accumulate versions without GC — a fresh engine per point
// also bounds memory).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "harness/driver.h"
#include "harness/engines.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace bohm {
namespace bench {

/// Produces one transaction from a per-thread YCSB generator.
using YcsbTxnFn = std::function<ProcedurePtr(YcsbGenerator&)>;

inline TxnSourceMaker YcsbSource(const YcsbConfig& cfg, YcsbTxnFn fn) {
  return [cfg, fn](uint32_t tid) -> TxnSource {
    auto gen = std::make_shared<YcsbGenerator>(cfg, 0x9000 + tid);
    return [gen, fn]() { return fn(*gen); };
  };
}

inline TxnSourceMaker SmallBankSource(const SmallBankConfig& cfg) {
  return [cfg](uint32_t tid) -> TxnSource {
    auto gen = std::make_shared<SmallBankGenerator>(cfg, 0x5b000 + tid);
    return [gen]() { return gen->Make(); };
  };
}

/// One YCSB measurement point: loads `engine` with `cfg`'s records,
/// starts it and drives `maker` over it. Takes the engine so the caller
/// picks any of the five (MakeEngine, or a BohmEngine with its own
/// BohmConfig).
inline BenchResult YcsbPoint(std::unique_ptr<Engine> engine,
                             const YcsbConfig& cfg,
                             const TxnSourceMaker& maker,
                             const DriverOptions& opt) {
  (void)YcsbLoad(cfg, [&](TableId t, Key k, const void* p) {
    return engine->Load(t, k, p);
  });
  (void)engine->Start();
  return RunBench(*engine, maker, opt);
}

/// One SmallBank measurement point on a fresh `kind` engine.
inline BenchResult SmallBankPoint(EngineKind kind, const SmallBankConfig& cfg,
                                  uint32_t threads,
                                  const DriverOptions& opt) {
  auto engine = MakeEngine(kind, SmallBankCatalog(cfg), threads);
  (void)SmallBankLoad(cfg, [&](TableId t, Key k, const void* p) {
    return engine->Load(t, k, p);
  });
  (void)engine->Start();
  return RunBench(*engine, SmallBankSource(cfg), opt);
}

}  // namespace bench
}  // namespace bohm
