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
#include <cstdint>
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

/// Aggregated view (plain values; safe to copy around — note the latency
/// histogram makes this a few KB, so avoid copying in tight loops).
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
  /// Monotone like the counters, so a window is the snapshot difference.
  /// Zero for executor engines (they have no pipeline to stall).
  uint64_t seq_stall_ns = 0;   ///< sequencer waiting for slot reuse
  uint64_t cc_stall_ns = 0;    ///< CC threads waiting for sealed batches
  uint64_t exec_stall_ns = 0;  ///< exec threads waiting for feed/CC watermark
  /// Durable-log accounting (zero when durability is off). Monotone, like
  /// the stall counters, so a measurement window is the snapshot delta.
  uint64_t log_stall_ns = 0;  ///< pipeline time blocked on the log
                              ///< (sequencer handoff + durable-ack waits)
  uint64_t log_bytes = 0;     ///< bytes appended to the log
  uint64_t log_records = 0;   ///< batch records appended
  uint64_t log_fsyncs = 0;    ///< fsync calls issued by the log writer
  /// Adaptive CC repartitioning (zero for non-Bohm engines and with the
  /// feature off). Migrations are monotone like the counters; the
  /// imbalance is a gauge — the last folded max/mean CC-thread load
  /// ratio x1000 (1000 = perfectly balanced), NOT windowable by delta.
  uint64_t cc_migrations = 0;
  uint64_t cc_imbalance_x1000 = 1000;

  double AbortRate() const {
    uint64_t attempts = commits + cc_aborts;
    return attempts == 0 ? 0.0
                         : static_cast<double>(cc_aborts) /
                               static_cast<double>(attempts);
  }
  std::string ToString() const;
};

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
