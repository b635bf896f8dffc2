// Execution statistics collected by every engine: commits, concurrency-
// control aborts, retries. Padded per-thread counters folded on demand, so
// stats collection itself never introduces the contended shared writes the
// paper is about eliminating.
//
// Counters are single-writer (each slice belongs to one thread) but read
// concurrently by monitors (WaitForIdle, benchmark snapshots), so they are
// relaxed atomics updated with plain load+store — no lock-prefixed RMW on
// the hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>

#include "common/histogram.h"
#include "common/macros.h"

namespace bohm {

/// Monotonic clock reading in nanoseconds. Every commit-latency stamp
/// (Bohm's Submit() tick, an executor's Execute() entry, RecordCommit)
/// uses this single definition so both ends of a measurement are taken
/// on the same clock.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Single-writer counter. The release/acquire pair gives monitors that
/// observe a count a happens-before edge to everything the counting
/// thread did first (e.g. WaitForIdle observing the final commit implies
/// the commit's effects are visible) — at zero cost on x86.
class RelaxedCounter {
 public:
  void Inc(uint64_t delta = 1) {
    // relaxed: single-writer counter — this thread is the only one that
    // stores, so its own last value needs no ordering; the release store
    // publishes it to monitors.
    v_.store(v_.load(std::memory_order_relaxed) + delta,
             std::memory_order_release);
  }
  uint64_t Get() const { return v_.load(std::memory_order_acquire); }
  void Reset() { v_.store(0, std::memory_order_release); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Per-thread slice of the engine counters.
struct alignas(kCacheLineSize) ThreadStats {
  RelaxedCounter commits;
  RelaxedCounter cc_aborts;     // aborts induced by concurrency control
  RelaxedCounter logic_aborts;  // aborts requested by transaction logic
  RelaxedCounter retries;       // re-executions after a cc abort
  RelaxedCounter reads;
  RelaxedCounter writes;
  /// Commit latency in microseconds, one sample per commit, recorded by
  /// RecordCommit. Bohm records submit→commit-ack time in its execution
  /// stage; executor engines record on-thread Execute() time.
  AtomicHistogram latency_us;
};

/// Counts one commit on `st`: records the latency since `start_ns` (a
/// MonotonicNanos() reading), rounded up to whole microseconds so a
/// commit never contributes a zero sample, then bumps the commit counter.
/// Sample first: any fold that observes the commit (e.g. a quiesced
/// snapshot) also observes its sample, which makes latency_us.count() ==
/// commits exact at quiescent points.
inline void RecordCommit(ThreadStats& st, uint64_t start_ns) {
  const uint64_t lat_ns = MonotonicNanos() - start_ns;
  st.latency_us.Record(lat_ns / 1000 + (lat_ns % 1000 != 0 ? 1 : 0));
  st.commits.Inc();
}

struct StatsSnapshot;

/// How a statistic windows: a counter grows monotonically, so a window is
/// the difference of its two edge readings; a gauge is a point reading,
/// so a window keeps the closing one.
enum class StatKind : uint8_t { kCounter, kGauge };

/// One row of the statistics registry (kStatFields below): where a
/// StatsSnapshot field lives, how it windows, and how it is reported.
struct StatField {
  uint64_t StatsSnapshot::*member;
  StatKind kind;
  const char* key;  ///< report key, in the JSON dump and in ToString()
  /// Reported value = field / scale (a power of ten), printed with as many
  /// decimals as the scale has zeros, so no digit of the field is lost.
  uint64_t scale;

  std::string Format(const StatsSnapshot& s) const;
};

/// Aggregated view (plain values; safe to copy around — note the latency
/// histogram makes this a few KB, so avoid copying in tight loops).
///
/// Every uint64_t field has exactly one row in kStatFields, which is what
/// Delta(), ToString() and the bench JSON walk; the build fails if a field
/// lacks its row. Adding a metric is: a field here, its row there, and the
/// engine line that fills it.
struct StatsSnapshot {
  uint64_t commits = 0;
  uint64_t cc_aborts = 0;
  uint64_t logic_aborts = 0;
  uint64_t retries = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  /// Merged per-thread commit-latency histograms. Grows monotonically
  /// with the counters, so a measurement window is Histogram::Delta of
  /// two snapshots; at quiescent snapshot points latency_us.count() ==
  /// commits exactly (one sample is recorded per commit, before the
  /// commit counter increment).
  Histogram latency_us;
  /// Per-stage stall attribution for pipelined engines (Bohm), in
  /// nanoseconds of wall-clock wait, summed over the stage's threads.
  /// Zero for executor engines (they have no pipeline to stall).
  uint64_t seq_stall_ns = 0;   ///< sequencer waiting for slot reuse
  uint64_t cc_stall_ns = 0;    ///< CC threads waiting for sealed batches
  uint64_t exec_stall_ns = 0;  ///< exec threads waiting for CC watermark
  /// Durable-log accounting (zero when durability is off).
  uint64_t log_stall_ns = 0;  ///< pipeline time blocked on the log
                              ///< (sequencer handoff + durable-ack waits)
  uint64_t log_bytes = 0;     ///< bytes appended to the log
  uint64_t log_records = 0;   ///< batch records appended
  uint64_t log_fsyncs = 0;    ///< fsync calls issued by the log writer
  /// Adaptive CC repartitioning (zero for non-Bohm engines and with the
  /// feature off): partitions migrated so far, and the last folded
  /// max/mean CC-thread load ratio x1000 (1000 = perfectly balanced).
  uint64_t cc_migrations = 0;
  uint64_t cc_imbalance_x1000 = 1000;
  /// Versions recycled by garbage collection (zero for non-Bohm engines
  /// and with GC off).
  uint64_t gc_freed = 0;

  double AbortRate() const {
    uint64_t attempts = commits + cc_aborts;
    return attempts == 0 ? 0.0
                         : static_cast<double>(cc_aborts) /
                               static_cast<double>(attempts);
  }
  /// One `key=value` entry per kStatFields row.
  std::string ToString() const;

  /// The window between two snapshots of the same engine, `before` taken
  /// first: counters are after - before, gauges keep after's reading, and
  /// the latency histogram is Histogram::Delta.
  static StatsSnapshot Delta(const StatsSnapshot& after,
                             const StatsSnapshot& before);
};

/// The statistics registry: one row per StatsSnapshot counter or gauge.
inline constexpr StatField kStatFields[] = {
    {&StatsSnapshot::commits, StatKind::kCounter, "commits", 1},
    {&StatsSnapshot::cc_aborts, StatKind::kCounter, "cc_aborts", 1},
    {&StatsSnapshot::logic_aborts, StatKind::kCounter, "logic_aborts", 1},
    {&StatsSnapshot::retries, StatKind::kCounter, "retries", 1},
    {&StatsSnapshot::reads, StatKind::kCounter, "reads", 1},
    {&StatsSnapshot::writes, StatKind::kCounter, "writes", 1},
    {&StatsSnapshot::seq_stall_ns, StatKind::kCounter, "seq_stall_us", 1000},
    {&StatsSnapshot::cc_stall_ns, StatKind::kCounter, "cc_stall_us", 1000},
    {&StatsSnapshot::exec_stall_ns, StatKind::kCounter, "exec_stall_us",
     1000},
    {&StatsSnapshot::log_stall_ns, StatKind::kCounter, "log_stall_us", 1000},
    {&StatsSnapshot::log_bytes, StatKind::kCounter, "log_bytes", 1},
    {&StatsSnapshot::log_records, StatKind::kCounter, "log_records", 1},
    {&StatsSnapshot::log_fsyncs, StatKind::kCounter, "fsyncs", 1},
    {&StatsSnapshot::cc_migrations, StatKind::kCounter, "cc_migrations", 1},
    {&StatsSnapshot::cc_imbalance_x1000, StatKind::kGauge, "cc_imbalance",
     1000},
    {&StatsSnapshot::gc_freed, StatKind::kCounter, "gc_freed", 1},
};

// Completeness: distinct rows that together with the histogram account
// for every byte of the snapshot, so a field without a row fails here.
static_assert(
    [] {
      for (size_t i = 0; i < std::size(kStatFields); ++i) {
        for (size_t j = i + 1; j < std::size(kStatFields); ++j) {
          if (kStatFields[i].member == kStatFields[j].member) return false;
        }
      }
      return true;
    }(),
    "kStatFields lists a StatsSnapshot field twice");
static_assert(sizeof(StatsSnapshot) ==
                  sizeof(Histogram) + std::size(kStatFields) * sizeof(uint64_t),
              "every StatsSnapshot field needs a kStatFields row");

/// Fixed-size pool of per-thread stats slices.
class StatsRegistry {
 public:
  explicit StatsRegistry(uint32_t threads)
      : threads_(threads), slices_(std::make_unique<ThreadStats[]>(threads)) {}
  BOHM_DISALLOW_COPY_AND_ASSIGN(StatsRegistry);

  ThreadStats& Slice(uint32_t thread) { return slices_[thread]; }
  uint32_t threads() const { return threads_; }

  StatsSnapshot Fold() const;
  /// Sum of commits + logic_aborts only. Cheap enough for poll loops
  /// (WaitForIdle); Fold() additionally snapshots the latency histograms.
  uint64_t FoldCompleted() const;
  void Reset();

 private:
  uint32_t threads_;
  std::unique_ptr<ThreadStats[]> slices_;
};

}  // namespace bohm
