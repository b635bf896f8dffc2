// Bounded lock-free queues.
//
//  * MpmcQueue — Vyukov's algorithm; the input queue between clients and
//    the Bohm sequencer thread.
//  * SpscQueue — single-producer/single-consumer ring with cache-line-
//    padded indices and cached peer indices; the per-stage handoff rings
//    of the streamed Bohm pipeline (sequencer -> each CC thread,
//    sequencer -> each execution thread).
//
// Capacities must be powers of two.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/macros.h"

namespace bohm {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t capacity)
      : capacity_(capacity), mask_(capacity - 1),
        cells_(std::make_unique<Cell[]>(capacity)) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 &&
           "capacity must be a power of two");
    for (size_t i = 0; i < capacity; ++i) {
      // relaxed: single-threaded constructor; the queue is published to
      // other threads by whatever hands them the reference.
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(MpmcQueue);

  /// Non-blocking push; returns false when the queue is full.
  bool TryPush(T value) {
    Cell* cell;
    // relaxed: tail_ is only a claim ticket; the cell's sequence word
    // (acquire below / release on publish) carries all data ordering —
    // Vyukov's protocol.
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      size_t seq = cell->sequence.load(std::memory_order_acquire);
      intptr_t diff = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        // relaxed: CAS success only claims the ticket; the subsequent
        // sequence release-store publishes the value.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        // relaxed: re-read of the ticket counter; same reasoning as above.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Non-blocking pop; returns false when the queue is empty.
  bool TryPop(T* out) {
    Cell* cell;
    // relaxed: head_ is only a claim ticket (see TryPush).
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      size_t seq = cell->sequence.load(std::memory_order_acquire);
      intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        // relaxed: CAS success only claims the ticket; the sequence
        // acquire above ordered the value read.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        // relaxed: re-read of the ticket counter.
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    *out = std::move(cell->value);
    cell->sequence.store(pos + capacity_, std::memory_order_release);
    return true;
  }

  /// Emptiness probe: false once the cell at the head has been published
  /// (exact from a sole consumer thread; advisory with several).
  bool Empty() const {
    // relaxed: head_ is only a claim ticket (see TryPop); the cell's
    // sequence acquire carries the ordering.
    const size_t pos = head_.load(std::memory_order_relaxed);
    return cells_[pos & mask_].sequence.load(std::memory_order_acquire) !=
           pos + 1;
  }

  /// Fullness probe: true while the cell at the tail has not been freed
  /// by a pop (exact from a sole producer thread; advisory with several).
  /// Lets a producer wait for room without giving up the value it would
  /// push.
  bool Full() const {
    // relaxed: tail_ is only a claim ticket (see TryPush); the cell's
    // sequence acquire carries the ordering.
    const size_t pos = tail_.load(std::memory_order_relaxed);
    const size_t seq = cells_[pos & mask_].sequence.load(
        std::memory_order_acquire);
    return static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos) < 0;
  }

  size_t capacity() const { return capacity_; }

 private:
  struct Cell {
    std::atomic<size_t> sequence;
    T value;
  };

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
};

/// Bounded wait-free single-producer/single-consumer ring.
///
/// The producer owns `tail_`, the consumer owns `head_`; each side keeps a
/// cached copy of the peer's index so the common case touches only its own
/// cache line plus the slot. The release store of the owned index is the
/// only publication: everything the producer wrote into the slot (and
/// everything it wrote anywhere else beforehand) is visible to a consumer
/// whose acquire load observes the advanced tail — which is exactly the
/// property the Bohm sequencer relies on to publish sealed batches
/// (docs/CONCURRENCY.md rule R5).
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity)
      : capacity_(capacity), mask_(capacity - 1),
        slots_(std::make_unique<T[]>(capacity)) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 &&
           "capacity must be a power of two");
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(SpscQueue);

  /// Producer side. Returns false when the ring is full.
  bool TryPush(T value) {
    // relaxed: tail_ is written only by this (the producer) thread, so it
    // reads back its own last store; ordering rides the release below.
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;  // full
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    // relaxed: head_ is written only by this (the consumer) thread, so it
    // reads back its own last store; the tail acquire below orders the
    // slot read against the producer's release publication.
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;  // empty
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer-side fullness probe (exact from the producer thread). Lets
  /// a producer wait for space without constructing the value it would
  /// push — TryPush consumes its argument even on failure.
  bool Full() const {
    // relaxed: producer-owned index (see TryPush); the acquire on head_
    // pairs with the consumer's release advance.
    return tail_.load(std::memory_order_relaxed) -
               head_.load(std::memory_order_acquire) >=
           capacity_;
  }

  /// Consumer-side emptiness probe (exact from the consumer thread).
  bool Empty() const {
    // relaxed: consumer-owned index (see TryPop).
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<T[]> slots_;
  /// Producer cache line: owned tail index + cached consumer head.
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  size_t head_cache_ = 0;
  /// Consumer cache line: owned head index + cached producer tail.
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  size_t tail_cache_ = 0;
};

}  // namespace bohm
