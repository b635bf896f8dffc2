#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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

// ---------------------------------------------------------------------------
// IdleEvent: spin-then-park event count (docs/CONCURRENCY.md rule R9).
// ---------------------------------------------------------------------------

/// Aborts the binary if `done` is not set within `seconds`: a lost wakeup
/// leaves the test threads parked forever, and they could not be joined.
class Watchdog {
 public:
  Watchdog(const std::atomic<bool>& done, int seconds) {
    thread_ = std::thread([&done, seconds] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
      while (!done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "IdleEvent: no progress for %d s, "
                               "a wakeup was lost\n", seconds);
          std::abort();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  ~Watchdog() { thread_.join(); }

 private:
  std::thread thread_;
};

/// Passes a token around `threads` threads `rounds` times; each thread
/// parks on one shared event until the token is its own. A zero spin
/// budget makes every wait park, so every round crosses the
/// register/re-check/notify window a lost wakeup would need.
void TokenRing(uint32_t threads, uint64_t rounds) {
  IdleEvent event(/*spin_nanos=*/0);
  std::atomic<uint64_t> token{0};
  std::atomic<bool> done{false};
  Watchdog watchdog(done, 60);
  std::vector<std::thread> ring;
  for (uint32_t id = 0; id < threads; ++id) {
    ring.emplace_back([&, id] {
      for (uint64_t r = 0; r < rounds; ++r) {
        const uint64_t mine = r * threads + id;
        event.Await(
            [&] { return token.load(std::memory_order_acquire) == mine; });
        token.store(mine + 1, std::memory_order_release);
        event.Notify();
      }
    });
  }
  for (auto& t : ring) t.join();
  done.store(true, std::memory_order_release);
  EXPECT_EQ(token.load(), rounds * threads);
}

TEST(IdleEventTest, PingPongNeverLosesAWakeup) { TokenRing(2, 100000); }

// Three waiters with different predicates on one event: every Notify
// wakes both others and one of them must park again.
TEST(IdleEventTest, SharedEventWakesEveryPredicate) { TokenRing(3, 30000); }

TEST(IdleEventTest, AwaitReturnsAtOnceWhenReady) {
  IdleEvent event;
  event.Await([] { return true; });
  event.Notify();  // nobody parked: a fence and a load
}

TEST(IdleEventTest, BusyWaitSpinsInsteadOfParking) {
  IdleEvent event(/*spin_nanos=*/0);
  std::atomic<bool> ready{false};
  std::atomic<bool> done{false};
  Watchdog watchdog(done, 60);
  // No Notify ever comes: only a waiter that keeps polling while busy()
  // holds can see the flag.
  std::thread waiter([&] {
    event.Await([&] { return ready.load(std::memory_order_acquire); },
                [] { return true; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ready.store(true, std::memory_order_release);
  waiter.join();
  done.store(true, std::memory_order_release);
}

#if defined(__linux__)
uint64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

TEST(IdleEventTest, ParkedWaiterUsesLittleCpu) {
  IdleEvent event;  // the engine's spin budget
  std::atomic<bool> ready{false};
  std::atomic<bool> started{false};
  uint64_t cpu_ns = 0;
  uint64_t wall_ns = 0;
  std::thread waiter([&] {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t c0 = ThreadCpuNanos();
    started.store(true, std::memory_order_release);
    event.Await([&] { return ready.load(std::memory_order_acquire); });
    cpu_ns = ThreadCpuNanos() - c0;
    wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ready.store(true, std::memory_order_release);
  event.Notify();
  waiter.join();
  EXPECT_GE(wall_ns, 100000000u);
  // Under 10% of one core over the wait: the spin budget is microseconds.
  EXPECT_LT(cpu_ns, wall_ns / 10) << "cpu " << cpu_ns << " ns over "
                                  << wall_ns << " ns";
}
#endif

}  // namespace
}  // namespace bohm
