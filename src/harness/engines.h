// Uniform construction of the five engines the paper compares, so that
// the experiment runner can sweep "system" as a parameter.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bohm/engine.h"
#include "mvocc/engine.h"
#include "occ/silo_engine.h"
#include "storage/schema.h"
#include "twopl/engine.h"
#include "txn/engine_iface.h"

namespace bohm {

enum class EngineKind { k2PL, kOCC, kSI, kHekaton, kBohm };

inline const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::k2PL:
      return "2PL";
    case EngineKind::kOCC:
      return "OCC";
    case EngineKind::kSI:
      return "SI";
    case EngineKind::kHekaton:
      return "Hekaton";
    case EngineKind::kBohm:
      return "Bohm";
  }
  return "?";
}

/// Bohm with `total_threads` split evenly between CC and execution, as
/// in the paper's cross-system comparisons (the sequencer mostly sleeps
/// and is not counted). Partition migration is on: skew is where a static
/// partition -> thread map melts.
inline BohmConfig BohmSplit(uint32_t total_threads) {
  if (total_threads == 0) total_threads = 1;
  BohmConfig cfg;
  cfg.cc_threads = total_threads / 2 == 0 ? 1 : total_threads / 2;
  cfg.exec_threads =
      total_threads - cfg.cc_threads == 0 ? 1 : total_threads - cfg.cc_threads;
  cfg.adaptive.enabled = true;
  return cfg;
}

/// One of the four executor engines with `threads` worker slots;
/// `commit_deps` is SI/Hekaton's speculative-read switch. kBohm is not an
/// executor engine: asking for it aborts (use MakeEngine).
inline std::unique_ptr<ExecutorEngine> MakeExecutorEngine(
    EngineKind kind, const Catalog& catalog, uint32_t threads,
    bool commit_deps = true) {
  switch (kind) {
    case EngineKind::k2PL: {
      TwoPLConfig cfg;
      cfg.threads = threads;
      return std::make_unique<TwoPLEngine>(catalog, cfg);
    }
    case EngineKind::kOCC: {
      SiloConfig cfg;
      cfg.threads = threads;
      return std::make_unique<SiloEngine>(catalog, cfg);
    }
    case EngineKind::kSI: {
      MVOccConfig cfg;
      cfg.mode = MVOccMode::kSnapshotIsolation;
      cfg.threads = threads;
      cfg.commit_dependencies = commit_deps;
      return std::make_unique<MVOccEngine>(catalog, cfg);
    }
    case EngineKind::kHekaton: {
      MVOccConfig cfg;
      cfg.mode = MVOccMode::kHekaton;
      cfg.threads = threads;
      cfg.commit_dependencies = commit_deps;
      return std::make_unique<MVOccEngine>(catalog, cfg);
    }
    case EngineKind::kBohm:
      break;
  }
  std::fprintf(stderr, "MakeExecutorEngine: %s is not an executor engine\n",
               EngineKindName(kind));
  std::abort();
}

/// Any of the five engines with `threads` worker threads; Bohm splits
/// them between its CC and execution stages (BohmSplit).
inline std::unique_ptr<Engine> MakeEngine(EngineKind kind,
                                          const Catalog& catalog,
                                          uint32_t threads) {
  if (kind == EngineKind::kBohm) {
    return std::make_unique<BohmEngine>(catalog, BohmSplit(threads));
  }
  return MakeExecutorEngine(kind, catalog, threads);
}

/// The five systems in the paper's plotting order.
inline constexpr EngineKind kAllEngines[] = {
    EngineKind::k2PL, EngineKind::kBohm, EngineKind::kOCC, EngineKind::kSI,
    EngineKind::kHekaton};

}  // namespace bohm
