// One benchmark measurement point as flat data: the engine (and Bohm
// variant), the workload and its size, and the knobs the paper's figures
// and ablations vary. RunPoint measures it on a fresh engine, so no state
// leaks across points (the paper's baselines accumulate versions without
// GC; a fresh engine per point also bounds memory).
#pragma once

#include <cstdint>

#include "harness/driver.h"
#include "harness/engines.h"

namespace bohm {

enum class Workload {
  kYcsb10Rmw,   ///< YCSB 10RMW
  kYcsb2Rmw8R,  ///< YCSB 2RMW-8R
  kYcsbMixed,   ///< 10RMW plus readonly_fraction long scans
  kYcsb1Rmw,    ///< single-record RMW
  kSmallBank,   ///< SmallBank with the paper's 50us spin per transaction
  kHotspot,     ///< shifting-hotspot 8RMW (workload/hotspot.h)
};

/// Bohm's durable sequencer log (durable acks on when enabled).
enum class LogMode { kOff, kFsyncNone, kFsyncGroup8, kFsyncBatch };

struct PointSpec {
  EngineKind engine = EngineKind::kBohm;
  /// Executors get this many worker slots; Bohm splits them between CC
  /// and execution (BohmSplit), unless cc_threads is non-zero: then it
  /// runs exactly cc_threads + exec_threads.
  uint32_t threads = 1;
  uint32_t cc_threads = 0;
  uint32_t exec_threads = 0;
  uint32_t clients = 0;  ///< 0: the engine's default_clients()

  Workload workload = Workload::kYcsb10Rmw;
  uint64_t records = 100'000;  ///< YCSB/hotspot records, SmallBank customers
  uint32_t record_size = 1000;
  double theta = 0.0;
  double readonly_fraction = 0.0;  ///< kYcsbMixed; scans read 10,000 keys
                                   ///< (at most half the table)
  uint64_t hot_keys = 16;          ///< kHotspot window width
  uint64_t shift_period = 50'000;  ///< kHotspot draws between shifts

  // Bohm (BohmConfig).
  uint32_t batch_size = 256;
  bool adaptive = true;
  uint32_t cc_interval = 8;     ///< adaptive.interval_batches
  double max_imbalance = 1.25;  ///< adaptive.max_imbalance
  bool gc = true;
  bool annotation = true;
  bool preprocessing = true;
  LogMode log = LogMode::kOff;

  bool commit_deps = true;  ///< SI/Hekaton (MVOccConfig)
};

/// Records one long read-only transaction reads:
/// min(scan_size, max(1, records / 2)).
uint32_t ClampScanSize(uint32_t scan_size, uint64_t records);

/// Builds the catalog and a fresh engine, loads, starts, measures one
/// RunBench window and tears the engine down. A non-zero `spec.clients`
/// overrides `opt.clients`. A log goes to a fresh temporary directory
/// that is removed afterwards.
BenchResult RunPoint(const PointSpec& spec, const DriverOptions& opt);

}  // namespace bohm
