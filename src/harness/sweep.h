// Shared parameter handling for the figure/table benchmarks.
//
// Defaults are sized so the entire bench suite completes in minutes on a
// small machine. On hardware comparable to the paper's 40-core box,
// override via environment:
//   BOHM_BENCH_THREADS=1,2,4,8,16,32,40   thread sweep
//   BOHM_BENCH_RECORDS=1000000            YCSB/micro table size
//   BOHM_BENCH_MEASURE_MS=2000            measurement window
//   BOHM_BENCH_WARMUP_MS=500              warmup
//   BOHM_BENCH_SCAN_SIZE=10000            read-only transaction size
//   BOHM_BENCH_SPIN_US=50                 SmallBank per-txn spin
//   BOHM_BENCH_JSON=out.json              full JSON dump incl. latency
//                                         (see scripts/bench_snapshot.sh)
//   BOHM_BENCH_ADAPTIVE=0                 disable adaptive CC
//                                         repartitioning (default on)
//   BOHM_BENCH_PARTITIONS=256             physical partitions per table
//                                         (default 0 = auto)
#pragma once

#include <cstdint>
#include <vector>

#include "bohm/engine.h"
#include "harness/driver.h"

namespace bohm {

/// Thread counts to sweep (x-axis of Figures 5, 6, 10).
std::vector<int> BenchThreads();

/// YCSB / microbenchmark record count (paper: 1,000,000).
uint64_t BenchRecords(uint64_t fallback);

/// Records read by one read-only transaction (paper: 10,000), clamped to
/// half the table.
uint32_t BenchScanSize(uint64_t records);

/// SmallBank per-transaction spin in microseconds (paper: 50).
uint32_t BenchSpinUs();

DriverOptions BenchDriverOptions();

/// The paper varies Bohm's CC/execution thread split (Figure 4); for the
/// cross-system comparisons every system gets N threads total, and Bohm
/// splits them evenly between the two stages (the sequencer thread mostly
/// sleeps and is not counted, as in the paper's setup).
BohmConfig BohmSplit(uint32_t total_threads);

}  // namespace bohm
