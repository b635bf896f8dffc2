#include "bohm/repartition.h"

#include <algorithm>
#include <cassert>

namespace bohm {

RepartitionController::RepartitionController(uint32_t partitions,
                                             uint32_t cc_threads,
                                             const AdaptiveCcConfig& cfg)
    : partitions_(partitions == 0 ? 1 : partitions),
      cc_threads_(cc_threads == 0 ? 1 : cc_threads),
      cfg_(cfg),
      last_totals_(partitions_, 0),
      delta_scratch_(partitions_, 0),
      load_scratch_(cc_threads_, 0) {
  owners_.resize(partitions_);
  for (uint32_t p = 0; p < partitions_; ++p) owners_[p] = p % cc_threads_;
}

const std::vector<uint32_t>& RepartitionController::MapForBatch(
    int64_t id, const WatermarkSet& cc_watermark) {
  if (!pending_.empty()) {
    // Gate: every thread that loses a partition must have finished all
    // batches sealed under the old map (ids < id). Its watermark Advance
    // is a release store ordered after its head stores for the migrated
    // partitions; the acquire Get here plus the sequencer's release feed
    // push of batch `id` hands that visibility to the new owner (R7).
    bool ready = true;
    for (uint32_t src : pending_sources_) {
      if (cc_watermark.Get(src) < id - 1) {
        ready = false;
        break;
      }
    }
    if (ready) PromotePending();
  }
  return owners_;
}

void RepartitionController::PromotePending() {
  owners_.swap(pending_);
  pending_.clear();
  pending_sources_.clear();
  // relaxed: sequencer is the single writer of these monitors, so the
  // read-back of its own last value needs no ordering; the release store
  // publishes the new value to Stats()/test readers.
  migrations_.store(migrations_.load(std::memory_order_relaxed) +
                        pending_moves_,
                    std::memory_order_release);
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  pending_moves_ = 0;
}

void RepartitionController::Observe(const std::vector<uint64_t>& touch_totals) {
  assert(touch_totals.size() == partitions_);
  // Per-partition deltas since the previous fold, accumulated into
  // per-thread loads under the current assignment.
  std::fill(load_scratch_.begin(), load_scratch_.end(), 0);
  uint64_t total = 0;
  for (uint32_t p = 0; p < partitions_; ++p) {
    const uint64_t delta = touch_totals[p] - last_totals_[p];
    delta_scratch_[p] = delta;
    load_scratch_[owners_[p]] += delta;
    total += delta;
  }
  last_totals_ = touch_totals;

  uint32_t hottest = 0;
  for (uint32_t t = 1; t < cc_threads_; ++t) {
    if (load_scratch_[t] > load_scratch_[hottest]) hottest = t;
  }
  const double avg =
      static_cast<double>(total) / static_cast<double>(cc_threads_);
  // An interval without traffic says nothing about balance: the gauge
  // keeps its last reading.
  if (total != 0) {
    imbalance_x1000_.store(
        static_cast<uint64_t>(
            static_cast<double>(load_scratch_[hottest]) * 1000.0 / avg),
        std::memory_order_release);
  }

  if (!cfg_.enabled || cc_threads_ < 2) return;
  if (!pending_.empty()) return;  // one migration in flight at a time

  if (cfg_.force_rotate) {
    // Test mode: shift every partition to the next thread. Every thread
    // is a source, so the promotion gate must observe all of them.
    pending_.resize(partitions_);
    for (uint32_t p = 0; p < partitions_; ++p) {
      pending_[p] = (owners_[p] + 1) % cc_threads_;
    }
    pending_sources_.clear();
    for (uint32_t t = 0; t < cc_threads_; ++t) pending_sources_.push_back(t);
    pending_moves_ = partitions_;
    return;
  }

  if (total == 0) return;
  if (static_cast<double>(load_scratch_[hottest]) <=
      cfg_.max_imbalance * avg) {
    return;
  }

  // Greedy rebalance: repeatedly move the hottest movable partition from
  // the most-loaded to the least-loaded thread. A partition is movable
  // when it saw traffic and moving it strictly narrows the gap (a single
  // mega-hot partition that dominates its thread stays put — moving it
  // would just relocate the bottleneck; its *cold siblings* move away
  // instead, which is what actually unloads the thread).
  std::vector<uint32_t> owners = owners_;
  std::vector<uint64_t> loads = load_scratch_;
  uint32_t moves = 0;
  std::vector<uint32_t> sources;
  // The hottest movable partitions go first, so a few moves close most
  // of a gap.
  constexpr uint32_t kMaxMoves = 8;
  while (moves < kMaxMoves) {
    uint32_t hi = 0, lo = 0;
    for (uint32_t t = 1; t < cc_threads_; ++t) {
      if (loads[t] > loads[hi]) hi = t;
      if (loads[t] < loads[lo]) lo = t;
    }
    const uint64_t gap = loads[hi] - loads[lo];
    if (static_cast<double>(loads[hi]) <= cfg_.max_imbalance * avg) break;
    // Hottest partition of `hi` whose move narrows the gap.
    uint32_t best = partitions_;
    uint64_t best_delta = 0;
    for (uint32_t p = 0; p < partitions_; ++p) {
      if (owners[p] != hi) continue;
      const uint64_t delta = delta_scratch_[p];
      if (delta == 0 || delta >= gap) continue;
      if (delta > best_delta) {
        best_delta = delta;
        best = p;
      }
    }
    if (best == partitions_) break;  // nothing movable helps
    owners[best] = lo;
    loads[hi] -= best_delta;
    loads[lo] += best_delta;
    sources.push_back(hi);
    ++moves;
  }
  if (moves == 0) return;

  pending_ = std::move(owners);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  pending_sources_ = std::move(sources);
  pending_moves_ = moves;
}

}  // namespace bohm
