// CC partition routing: decouple the *physical* index partition (static
// hash over keys — every record has exactly one home partition,
// preserving BohmTable's single-writer index discipline) from the
// *owning CC thread* (dynamic).
//
// Every engine routes through an epoch-versioned partition map
// (partition -> owner thread) that only the sequencer mutates. With more
// than one CC thread there are many more physical partitions than
// threads (e.g. 128–1024 vs. 2–64). CC threads bump per-partition touch
// counters (single-writer relaxed slots, like the stall/stat slots);
// between batches the sequencer folds them into the imbalance gauge and,
// when adaptive repartitioning is enabled, migrates whole partitions from
// overloaded to underloaded threads. This module is the only place that
// reads the migration knob: with it off the initial map simply never
// changes (the paper's static assignment).
//
// Safety (docs/CONCURRENCY.md rule R7):
//  * Each sealed Batch carries its own copy of the owner array, written by
//    the sequencer before the feed push; the copy rides the feed-push
//    release edge (rule R5), so a CC thread popping the batch sees it
//    fully built. The copy lives and dies with its batch slot (rule R8),
//    so no map ever has to be retired.
//  * A migration takes effect only once the sequencer has observed every
//    *source* thread's cc_watermark pass the last batch sealed under the
//    old map. The old owner's head stores happen before its watermark
//    Advance (release); the sequencer's acquire fold happens before its
//    next feed push (release); the new owner's pop (acquire) therefore
//    sees every version the old owner installed. Until the gate opens,
//    batches keep sealing under the old map — the sequencer never waits.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/watermark.h"

namespace bohm {

/// Knobs for CC partition routing (BohmConfig::adaptive).
struct AdaptiveCcConfig {
  /// Let the controller migrate partitions between CC threads. Off keeps
  /// the initial map for the engine's lifetime; nothing else changes.
  bool enabled = false;
  /// Physical partitions per table. 0 = auto: 1 for a single CC thread,
  /// else 8 per CC thread clamped to [128, 1024]. Must be >= cc_threads
  /// (Start() validates).
  uint32_t partitions = 0;
  /// Fold touch counters and reconsider the assignment every this many
  /// batches.
  uint32_t interval_batches = 8;
  /// Migrate when the hottest thread's load exceeds this multiple of the
  /// mean per-thread load.
  double max_imbalance = 1.25;
  /// Test knob: rotate every partition's owner by one thread at each
  /// interval regardless of load, forcing the migration machinery (map
  /// promotion gate, cross-thread handoff, GC of versions another thread
  /// allocated) to run constantly. Takes effect only with `enabled`. Never useful in
  /// production.
  bool force_rotate = false;
};

/// Sequencer-owned controller for the partition map. Every method except
/// the const monitors must be called from the sequencer thread only.
class RepartitionController {
 public:
  /// The initial assignment is owners[p] = p % cc_threads.
  RepartitionController(uint32_t partitions, uint32_t cc_threads,
                        const AdaptiveCcConfig& cfg);
  BOHM_DISALLOW_COPY_AND_ASSIGN(RepartitionController);

  /// Returns the owner array (partition -> CC thread) to copy into batch
  /// `id`, promoting a pending migration first if its watermark gate has
  /// opened: every source thread's cc watermark must have passed id - 1
  /// (i.e. the old owner finished every batch sealed under the old map).
  /// Sequencer thread only.
  const std::vector<uint32_t>& MapForBatch(int64_t id,
                                           const WatermarkSet& cc_watermark);

  /// Feeds the controller one fold of the cumulative per-partition touch
  /// counters: updates the imbalance gauge and, when migration is
  /// enabled, may create a pending migration. Call every
  /// `interval_batches` sealed batches. Sequencer thread only.
  void Observe(const std::vector<uint64_t>& touch_totals);

  // --- cross-thread monitors (any thread) ---
  /// Partitions moved across all promoted migrations (monotone).
  uint64_t migrations() const {
    return migrations_.load(std::memory_order_acquire);
  }
  /// Max-thread-load / mean-thread-load ratio of the last fold that saw
  /// traffic, x1000 (gauge; 1000 = perfectly balanced, or no traffic yet).
  uint64_t imbalance_x1000() const {
    return imbalance_x1000_.load(std::memory_order_acquire);
  }
  /// Epoch of the current (promoted) map.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  void PromotePending();

  const uint32_t partitions_;
  const uint32_t cc_threads_;
  const AdaptiveCcConfig cfg_;

  /// Current map: partition -> CC thread.
  std::vector<uint32_t> owners_;

  /// Pending migration awaiting its watermark gate (empty when none is
  /// staged), plus the threads that lose partitions in it (the gate
  /// applies to those only).
  std::vector<uint32_t> pending_;
  std::vector<uint32_t> pending_sources_;
  uint32_t pending_moves_ = 0;

  /// Previous fold of the cumulative touch counters (deltas drive the
  /// rebalance decision).
  std::vector<uint64_t> last_totals_;
  /// Scratch: per-partition deltas of the current fold.
  std::vector<uint64_t> delta_scratch_;
  /// Scratch: per-thread load of the current fold.
  std::vector<uint64_t> load_scratch_;

  /// Monitors. Single writer (the sequencer); release stores publish to
  /// Stats()/test readers.
  std::atomic<uint64_t> migrations_{0};
  std::atomic<uint64_t> imbalance_x1000_{1000};
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace bohm
