// Log-bucketed latency histogram (HdrHistogram-style, power-of-two
// buckets with linear sub-buckets). Fixed memory, constant-time record,
// approximate percentiles with bounded relative error — the standard
// instrument for OLTP latency profiles.
//
// Two variants share the bucket geometry:
//  * Histogram — not thread-safe; the plain value that folds, snapshots
//    and window deltas (StatsSnapshot, BenchResult) are made of.
//  * AtomicHistogram — single-writer, concurrently foldable; lives in the
//    per-thread StatsRegistry slices so every engine's committing threads
//    record commit latency while monitors snapshot mid-run.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace bohm {

class AtomicHistogram;

class Histogram {
 public:
  static constexpr uint32_t kSubBuckets = 16;  // per power-of-two range
  static constexpr uint32_t kRanges = 40;      // up to ~2^40 units

  void Record(uint64_t value) {
    ++count_;
    total_ += value;
    if (value > max_) max_ = value;
    buckets_[BucketOf(value)] += 1;
  }

  void Merge(const Histogram& other) {
    count_ += other.count_;
    total_ += other.total_;
    if (other.max_ > max_) max_ = other.max_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(total_) /
                             static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1] (upper bound of the containing
  /// bucket). Returns 0 for an empty histogram.
  uint64_t Percentile(double q) const {
    if (count_ == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (target >= count_) target = count_ - 1;
    uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target) {
        uint64_t ub = BucketUpperBound(i);
        return ub > max_ ? max_ : ub;  // never report beyond observed max
      }
    }
    return max_;
  }

  void Reset() {
    buckets_.fill(0);
    count_ = 0;
    total_ = 0;
    max_ = 0;
  }

  /// Bucket-wise difference `later - earlier`, for windowed measurements
  /// over monotonically growing histograms: `earlier` must be a snapshot
  /// of the same histogram taken before `later` (every bucket count and
  /// the total are then <= their `later` counterparts; values that do not
  /// satisfy this are clamped to zero rather than underflowing). The max
  /// is `later`'s — the per-bucket counts cannot recover a windowed max,
  /// so it is an upper bound for the window.
  static Histogram Delta(const Histogram& later, const Histogram& earlier) {
    Histogram out;
    out.count_ = Sub(later.count_, earlier.count_);
    out.total_ = Sub(later.total_, earlier.total_);
    out.max_ = out.count_ == 0 ? 0 : later.max_;
    for (std::size_t i = 0; i < out.buckets_.size(); ++i) {
      out.buckets_[i] = Sub(later.buckets_[i], earlier.buckets_[i]);
    }
    return out;
  }

 private:
  friend class AtomicHistogram;

  static uint64_t Sub(uint64_t a, uint64_t b) { return a >= b ? a - b : 0; }

  static std::size_t BucketOf(uint64_t value) {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    // Range r covers [kSubBuckets << (r-1), kSubBuckets << r).
    uint32_t msb = 63u - static_cast<uint32_t>(__builtin_clzll(value));
    uint32_t range = msb - 3;  // log2(kSubBuckets) == 4
    uint32_t sub =
        static_cast<uint32_t>(value >> (range - 1)) & (kSubBuckets - 1);
    std::size_t idx = static_cast<std::size_t>(range) * kSubBuckets + sub;
    constexpr std::size_t kMax = kSubBuckets * kRanges - 1;
    return idx > kMax ? kMax : idx;
  }

  static uint64_t BucketUpperBound(std::size_t idx) {
    if (idx < kSubBuckets) return static_cast<uint64_t>(idx);
    uint32_t range = static_cast<uint32_t>(idx / kSubBuckets);
    uint32_t sub = static_cast<uint32_t>(idx % kSubBuckets);
    // Inverse of BucketOf: value ≈ (kSubBuckets + sub) << (range - 1).
    return (static_cast<uint64_t>(kSubBuckets + sub) << (range - 1)) +
           ((1ull << (range - 1)) - 1);
  }

  std::array<uint64_t, kSubBuckets * kRanges> buckets_{};
  uint64_t count_ = 0;
  uint64_t total_ = 0;
  uint64_t max_ = 0;
};

/// Histogram with the same bucket geometry whose cells are single-writer
/// relaxed atomics (the RelaxedCounter pattern: plain load+store, no
/// lock-prefixed RMW on the hot path). Exactly one thread may Record();
/// any number of monitors may MergeInto() concurrently. A concurrent fold
/// may observe a sample's bucket before its count (Record publishes the
/// count last, folds read it first), never the reverse, so percentile
/// targets derived from the folded count always have backing buckets. At
/// a quiescent point (e.g. after WaitForIdle) a fold is exact.
class AtomicHistogram {
 public:
  void Record(uint64_t value) {
    // relaxed: single-writer cells — only the owning thread stores, so it
    // always sees its own latest values; the count_ release below is the
    // sole publication point (folds acquire count_ first).
    std::atomic<uint64_t>& b = buckets_[Histogram::BucketOf(value)];
    b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    // relaxed: same single-writer reasoning as the bucket cell above.
    total_.store(total_.load(std::memory_order_relaxed) + value,
                 std::memory_order_relaxed);
    // relaxed: same single-writer reasoning as the bucket cell above.
    if (value > max_.load(std::memory_order_relaxed)) {
      max_.store(value, std::memory_order_relaxed);
    }
    // relaxed: the load side is single-writer; the release store is what
    // publishes this sample (bucket before count, never the reverse).
    count_.store(count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  }

  uint64_t count() const { return count_.load(std::memory_order_acquire); }

  /// Merges a snapshot of this histogram into `out`.
  void MergeInto(Histogram* out) const {
    out->count_ += count_.load(std::memory_order_acquire);
    // relaxed: the count_ acquire above already ordered every sample the
    // fold is entitled to see; later writer stores may race in but only
    // ever add samples (monotone), which Delta() tolerates.
    out->total_ += total_.load(std::memory_order_relaxed);
    // relaxed: same monotone-snapshot reasoning as total_ above.
    uint64_t m = max_.load(std::memory_order_relaxed);
    if (m > out->max_) out->max_ = m;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      // relaxed: same monotone-snapshot reasoning as total_ above.
      out->buckets_[i] += buckets_[i].load(std::memory_order_relaxed);
    }
  }

  /// Writer-side (or quiescent) reset only, like RelaxedCounter::Reset.
  void Reset() {
    // relaxed: quiescent-only operation by contract (no concurrent
    // Record/MergeInto); the final release store below publishes the
    // whole reset to whoever observes the histogram next.
    count_.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_release);
  }

 private:
  std::array<std::atomic<uint64_t>, Histogram::kSubBuckets * Histogram::kRanges>
      buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> max_{0};
};

}  // namespace bohm
