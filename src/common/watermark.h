// WatermarkSet — per-thread epoch watermarks with a min fold, the
// inter-thread progress primitive of the batch pipeline. The streamed
// Bohm pipeline replaces its one-barrier-per-batch CC handoff (Section
// 3.2.4 of the paper) with these: each CC thread advances its own
// watermark as it finishes its partition slice of a batch, and the
// execution stage starts batch b as soon as min(watermarks) >= b — no
// thread ever parks at a barrier on the hot path.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/macros.h"

namespace bohm {

/// Per-thread monotone epoch watermarks, folded with a min.
///
/// Each slot is written by exactly one owner thread (release) and sits on
/// its own cache line; Min() acquire-folds all slots, so an observer that
/// sees Min() >= b has a happens-before edge to everything every owner
/// thread did before advancing past b. That single property carries the
/// whole CC->execution handoff of the streamed pipeline
/// (docs/CONCURRENCY.md rule R5).
class WatermarkSet {
 public:
  explicit WatermarkSet(uint32_t threads, int64_t initial = -1)
      : threads_(threads), slots_(std::make_unique<Slot[]>(threads)) {
    for (uint32_t i = 0; i < threads; ++i) {
      // relaxed: single-threaded constructor; the set is published to
      // other threads by whatever hands them the reference.
      slots_[i].v.store(initial, std::memory_order_relaxed);
    }
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(WatermarkSet);

  /// Advances thread `tid`'s watermark to `v` (owner thread only).
  /// Watermarks are monotone: regressions are a caller bug.
  void Advance(uint32_t tid, int64_t v) {
    // relaxed: slot tid is single-writer (this owner thread), so the
    // assert reads back its own last store; publication is the release
    // below.
    assert(v >= slots_[tid].v.load(std::memory_order_relaxed) &&
           "watermark regression");
    slots_[tid].v.store(v, std::memory_order_release);
  }

  /// One thread's current watermark.
  int64_t Get(uint32_t tid) const {
    return slots_[tid].v.load(std::memory_order_acquire);
  }

  /// The set-wide low watermark: every thread has advanced to at least
  /// the returned value.
  int64_t Min() const {
    int64_t min = INT64_MAX;
    for (uint32_t i = 0; i < threads_; ++i) {
      const int64_t v = slots_[i].v.load(std::memory_order_acquire);
      if (v < min) min = v;
    }
    return min;
  }

  uint32_t threads() const { return threads_; }

 private:
  struct alignas(kCacheLineSize) Slot {
    std::atomic<int64_t> v;
  };

  const uint32_t threads_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace bohm
