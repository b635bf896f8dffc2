#include "common/stats.h"

#include <cinttypes>
#include <cstdio>

namespace bohm {

namespace {

/// The per-thread counters and the snapshot fields StatsRegistry::Fold
/// sums them into (Reset clears the same list).
struct ThreadCounterField {
  RelaxedCounter ThreadStats::*slice;
  uint64_t StatsSnapshot::*total;
};
constexpr ThreadCounterField kThreadCounters[] = {
    {&ThreadStats::commits, &StatsSnapshot::commits},
    {&ThreadStats::cc_aborts, &StatsSnapshot::cc_aborts},
    {&ThreadStats::logic_aborts, &StatsSnapshot::logic_aborts},
    {&ThreadStats::retries, &StatsSnapshot::retries},
    {&ThreadStats::reads, &StatsSnapshot::reads},
    {&ThreadStats::writes, &StatsSnapshot::writes},
};

}  // namespace

std::string StatField::Format(const StatsSnapshot& s) const {
  const uint64_t v = s.*member;
  char buf[32];
  if (scale == 1) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  } else {
    int decimals = 0;
    for (uint64_t x = scale; x > 1; x /= 10) ++decimals;
    std::snprintf(buf, sizeof(buf), "%.*f", decimals,
                  static_cast<double>(v) / static_cast<double>(scale));
  }
  return buf;
}

std::string StatsSnapshot::ToString() const {
  std::string out;
  for (const StatField& f : kStatFields) {
    if (!out.empty()) out += ' ';
    out += f.key;
    out += '=';
    out += f.Format(*this);
  }
  return out;
}

StatsSnapshot StatsSnapshot::Delta(const StatsSnapshot& after,
                                   const StatsSnapshot& before) {
  StatsSnapshot out;
  for (const StatField& f : kStatFields) {
    out.*f.member = f.kind == StatKind::kCounter
                        ? after.*f.member - before.*f.member
                        : after.*f.member;
  }
  out.latency_us = Histogram::Delta(after.latency_us, before.latency_us);
  return out;
}

// Thread-safety: safe to call concurrently with running workers — each
// slice is single-writer (its own thread), and RelaxedCounter::Get /
// Histogram::MergeInto take monotone acquire snapshots, so Fold returns a
// consistent-enough point-in-time view without stopping anyone.
StatsSnapshot StatsRegistry::Fold() const {
  StatsSnapshot out;
  for (uint32_t i = 0; i < threads_; ++i) {
    const ThreadStats& s = slices_[i];
    for (const ThreadCounterField& c : kThreadCounters) {
      out.*c.total += (s.*c.slice).Get();
    }
    s.latency_us.MergeInto(&out.latency_us);
  }
  return out;
}

uint64_t StatsRegistry::FoldCompleted() const {
  uint64_t out = 0;
  for (uint32_t i = 0; i < threads_; ++i) {
    out += slices_[i].commits.Get() + slices_[i].logic_aborts.Get();
  }
  return out;
}

void StatsRegistry::Reset() {
  for (uint32_t i = 0; i < threads_; ++i) {
    ThreadStats& s = slices_[i];
    for (const ThreadCounterField& c : kThreadCounters) (s.*c.slice).Reset();
    s.latency_us.Reset();
  }
}

}  // namespace bohm
