#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/affinity.h"
#include "common/spin.h"
#include "common/watermark.h"

namespace bohm {
namespace {

TEST(SpinLockTest, MutualExclusionUnderContention) {
  SpinLock lock;
  int64_t counter = 0;
  constexpr int kThreads = 4, kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        ++counter;  // non-atomic: torn without mutual exclusion
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIters);
}

TEST(SpinLockTest, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(RWSpinLockTest, MultipleReaders) {
  RWSpinLock lock;
  lock.LockShared();
  EXPECT_TRUE(lock.TryLockShared());
  lock.UnlockShared();
  lock.UnlockShared();
}

TEST(RWSpinLockTest, WriterExcludesReaders) {
  RWSpinLock lock;
  lock.LockExclusive();
  EXPECT_FALSE(lock.TryLockShared());
  EXPECT_FALSE(lock.TryLockExclusive());
  lock.UnlockExclusive();
  EXPECT_TRUE(lock.TryLockShared());
  lock.UnlockShared();
}

TEST(RWSpinLockTest, ReaderExcludesWriter) {
  RWSpinLock lock;
  lock.LockShared();
  EXPECT_FALSE(lock.TryLockExclusive());
  lock.UnlockShared();
  EXPECT_TRUE(lock.TryLockExclusive());
  lock.UnlockExclusive();
}

TEST(RWSpinLockTest, WriterWriterExclusionStress) {
  RWSpinLock lock;
  int64_t counter = 0;
  constexpr int kThreads = 4, kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.LockExclusive();
        ++counter;
        lock.UnlockExclusive();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIters);
}

TEST(RWSpinLockTest, ReadersSeeConsistentStateDuringWrites) {
  RWSpinLock lock;
  // Writer keeps the pair (a, b) with a == b under the lock; readers must
  // never observe a != b.
  int64_t a = 0, b = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread writer([&] {
    for (int i = 1; i <= 20000; ++i) {
      lock.LockExclusive();
      a = i;
      b = i;
      lock.UnlockExclusive();
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        lock.LockShared();
        if (a != b) torn.store(true, std::memory_order_release);
        lock.UnlockShared();
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_FALSE(torn.load());
}

// ---------------------------------------------------------------------------
// WatermarkSet — the epoch-watermark fold behind the streamed Bohm
// pipeline handoff (per-thread Advance, cross-stage Min admission).
// ---------------------------------------------------------------------------

TEST(WatermarkSetTest, StartsAtInitialValue) {
  WatermarkSet w(3);
  EXPECT_EQ(w.threads(), 3u);
  for (uint32_t t = 0; t < 3; ++t) EXPECT_EQ(w.Get(t), -1);
  EXPECT_EQ(w.Min(), -1);
  WatermarkSet w2(2, 7);
  EXPECT_EQ(w2.Min(), 7);
}

TEST(WatermarkSetTest, MinFoldTracksTheLaggingThread) {
  // The fold is the admission gate: a single lagging thread must hold
  // the minimum regardless of how far its peers run ahead.
  WatermarkSet w(4);
  w.Advance(0, 10);
  w.Advance(1, 10);
  w.Advance(2, 10);
  EXPECT_EQ(w.Min(), -1) << "thread 3 never advanced";
  w.Advance(3, 2);
  EXPECT_EQ(w.Min(), 2) << "thread 3 is the laggard";
  w.Advance(3, 10);
  EXPECT_EQ(w.Min(), 10);
  w.Advance(0, 11);
  EXPECT_EQ(w.Min(), 10) << "min moves only when the slowest moves";
}

TEST(WatermarkSetTest, PerThreadGetIsMonotone) {
  WatermarkSet w(2);
  for (int64_t v = 0; v < 100; ++v) {
    w.Advance(0, v);
    EXPECT_EQ(w.Get(0), v);
    EXPECT_EQ(w.Get(1), -1);
  }
}

TEST(WatermarkSetTest, AdvancePublishesPrecedingWrites) {
  // TSan-targeted message-passing litmus (runs 50x seeded in the
  // tsan-stress CI job) mirroring the pipeline's rule: a CC thread's
  // plain writes (placeholder insertion, read annotation) must be visible
  // to any thread that observed its watermark pass the batch — Advance is
  // a release store, Get/Min are acquire loads, and that edge is the ONLY
  // thing making the payload read below race-free.
  constexpr int64_t kRounds = 20'000;
  WatermarkSet w(2);
  std::vector<uint64_t> payload(static_cast<size_t>(kRounds), 0);
  std::thread producer([&] {
    for (int64_t r = 0; r < kRounds; ++r) {
      payload[static_cast<size_t>(r)] = static_cast<uint64_t>(r) * 3 + 1;
      w.Advance(0, r);
    }
  });
  std::thread min_observer([&] {
    // Exercises the fold path too: Min() over {producer, self}.
    for (int64_t r = 0; r < kRounds; ++r) {
      w.Advance(1, r);
      while (w.Min() < r) std::this_thread::yield();
      ASSERT_EQ(payload[static_cast<size_t>(r)],
                static_cast<uint64_t>(r) * 3 + 1)
          << "payload write was not ordered before Advance";
    }
  });
  producer.join();
  min_observer.join();
  EXPECT_EQ(w.Min(), kRounds - 1);
}

TEST(AffinityTest, HardwareConcurrencyPositive) {
  EXPECT_GE(HardwareConcurrency(), 1u);
}

TEST(AffinityTest, ShouldPinPolicy) {
  EXPECT_TRUE(ShouldPin(1));
  EXPECT_FALSE(ShouldPin(HardwareConcurrency() + 1));
}

TEST(AffinityTest, PinSelfSucceedsOnLinux) {
#if defined(__linux__)
  EXPECT_TRUE(PinCurrentThreadToCpu(0));
#endif
}

TEST(SpinWaitTest, PauseProgresses) {
  SpinWait wait;
  for (int i = 0; i < 1000; ++i) wait.Pause();  // must not hang or crash
  wait.Reset();
  wait.Pause();
}

}  // namespace
}  // namespace bohm
