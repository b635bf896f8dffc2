#include "harness/sweep.h"

#include "common/env.h"

namespace bohm {

std::vector<int> BenchThreads() {
  return EnvIntList("BOHM_BENCH_THREADS", {1, 2, 4});
}

uint64_t BenchRecords(uint64_t fallback) {
  int64_t v = EnvInt64("BOHM_BENCH_RECORDS", static_cast<int64_t>(fallback));
  return v < 1 ? 1 : static_cast<uint64_t>(v);
}

uint32_t BenchScanSize(uint64_t records) {
  int64_t v = EnvInt64("BOHM_BENCH_SCAN_SIZE", 10'000);
  if (v < 1) v = 1;
  uint64_t cap = records / 2 == 0 ? 1 : records / 2;
  return static_cast<uint32_t>(
      static_cast<uint64_t>(v) < cap ? static_cast<uint64_t>(v) : cap);
}

uint32_t BenchSpinUs() {
  int64_t v = EnvInt64("BOHM_BENCH_SPIN_US", 50);
  return v < 0 ? 0 : static_cast<uint32_t>(v);
}

DriverOptions BenchDriverOptions() {
  DriverOptions opt;
  opt.warmup_ms =
      static_cast<uint32_t>(EnvInt64("BOHM_BENCH_WARMUP_MS", 100));
  opt.measure_ms =
      static_cast<uint32_t>(EnvInt64("BOHM_BENCH_MEASURE_MS", 300));
  return opt;
}

BohmConfig BohmSplit(uint32_t total_threads) {
  if (total_threads == 0) total_threads = 1;
  BohmConfig cfg;
  cfg.cc_threads = total_threads / 2 == 0 ? 1 : total_threads / 2;
  cfg.exec_threads =
      total_threads - cfg.cc_threads == 0 ? 1 : total_threads - cfg.cc_threads;
  cfg.batch_size =
      static_cast<uint32_t>(EnvInt64("BOHM_BENCH_BATCH_SIZE", 256));
  // Partition migration is on by default for the benches (the skewed
  // figures are exactly where a static partition->thread map melts);
  // BOHM_BENCH_ADAPTIVE=0 keeps the initial map, on the same partition
  // layout.
  cfg.adaptive.enabled = EnvInt64("BOHM_BENCH_ADAPTIVE", 1) != 0;
  int64_t parts = EnvInt64("BOHM_BENCH_PARTITIONS", 0);
  cfg.adaptive.partitions =
      parts < 0 ? 0 : static_cast<uint32_t>(parts);  // 0 = auto
  return cfg;
}

}  // namespace bohm
