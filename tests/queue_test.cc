#include "common/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace bohm {
namespace {

TEST(MpmcQueueTest, PushPopSingleThread) {
  MpmcQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 2);
}

TEST(MpmcQueueTest, EmptyPopFails) {
  MpmcQueue<int> q(8);
  int v;
  EXPECT_FALSE(q.TryPop(&v));
}

TEST(MpmcQueueTest, FullPushFails) {
  MpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));
}

TEST(MpmcQueueTest, FullTracksOccupancy) {
  // Full() holds exactly while a TryPush would fail, across several laps
  // of the ring, and it never consumes or reorders anything.
  MpmcQueue<int> q(4);
  int next_in = 0, next_out = 0;
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_FALSE(q.Full()) << "lap " << lap << " before push " << i;
      ASSERT_TRUE(q.TryPush(next_in++));
    }
    EXPECT_TRUE(q.Full()) << "lap " << lap;
    EXPECT_TRUE(q.Full()) << "the probe must not change the queue";
    EXPECT_FALSE(q.TryPush(99));
    int v = -1;
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, next_out++);
    EXPECT_FALSE(q.Full()) << "one pop frees one cell";
    ASSERT_TRUE(q.TryPush(next_in++));
    EXPECT_TRUE(q.Full());
    while (q.TryPop(&v)) EXPECT_EQ(v, next_out++);
    EXPECT_FALSE(q.Full());
    EXPECT_TRUE(q.Empty());
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(MpmcQueueTest, FifoWithinCapacityCycles) {
  MpmcQueue<int> q(4);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.TryPush(round * 4 + i));
    for (int i = 0; i < 4; ++i) {
      int v;
      ASSERT_TRUE(q.TryPop(&v));
      EXPECT_EQ(v, round * 4 + i);
    }
  }
}

TEST(MpmcQueueTest, MovesUniquePtrs) {
  MpmcQueue<std::unique_ptr<int>> q(4);
  ASSERT_TRUE(q.TryPush(std::make_unique<int>(5)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(*out, 5);
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersConserveSum) {
  // 4 producers push 5000 values each; 4 consumers drain them. The sum of
  // consumed values must equal the sum of produced values, with no loss
  // and no duplication.
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 5000;
  MpmcQueue<uint64_t> q(256);
  std::atomic<uint64_t> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto v = static_cast<uint64_t>(p * kPerProducer + i);
        while (!q.TryPush(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      uint64_t v;
      while (!done.load(std::memory_order_acquire) ||
             consumed_count.load(std::memory_order_acquire) <
                 kProducers * kPerProducer) {
        if (q.TryPop(&v)) {
          consumed_sum.fetch_add(v, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
        if (consumed_count.load(std::memory_order_acquire) ==
            kProducers * kPerProducer) {
          break;
        }
      }
    });
  }
  for (size_t i = 0; i < static_cast<size_t>(kProducers); ++i) {
    threads[i].join();
  }
  done.store(true, std::memory_order_release);
  for (size_t i = kProducers; i < threads.size(); ++i) threads[i].join();

  const uint64_t total = static_cast<uint64_t>(kProducers) * kPerProducer;
  uint64_t expected = total * (total - 1) / 2;
  EXPECT_EQ(consumed_count.load(), static_cast<int>(total));
  EXPECT_EQ(consumed_sum.load(), expected);
}

// ---------------------------------------------------------------------------
// SpscQueue — the per-stage pipeline feed behind the streamed Bohm
// handoff (sequencer -> CC / exec batch-id rings).
// ---------------------------------------------------------------------------

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.Empty());
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.Empty());
}

TEST(SpscQueueTest, EmptyPopFailsFullPushFails) {
  SpscQueue<int> q(4);
  int v;
  EXPECT_FALSE(q.TryPop(&v));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));
  // Draining one slot re-admits exactly one push (cached-index refresh).
  ASSERT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(q.TryPush(99));
  EXPECT_FALSE(q.TryPush(100));
}

TEST(SpscQueueTest, FifoAcrossWraparoundBoundary) {
  // Enough cycles through a tiny ring to cross the capacity boundary many
  // times — and, with the offset start, to exercise every head/tail
  // alignment of the pow2 mask. Staying FIFO across wraparound is the
  // property the streamed pipeline's batch ordering rests on.
  SpscQueue<uint64_t> q(4);
  uint64_t next_push = 0, next_pop = 0;
  // Offset the indices so push/pop runs straddle the boundary rather than
  // landing on it.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.TryPush(next_push++));
  for (int round = 0; round < 64; ++round) {
    uint64_t v;
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, next_pop++);
    ASSERT_TRUE(q.TryPush(next_push++));
    ASSERT_TRUE(q.TryPush(next_push++));
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, next_pop++);
  }
  while (!q.Empty()) {
    uint64_t v;
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscQueueTest, MovesUniquePtrs) {
  SpscQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.TryPush(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

TEST(SpscQueueTest, ConcurrentProducerConsumerPreservesOrder) {
  // TSan-targeted (runs 50x seeded in the tsan-stress CI job): one
  // producer, one consumer, a ring far smaller than the stream, so both
  // the full path (producer refreshes head_cache_) and the empty path
  // (consumer refreshes tail_cache_) run constantly. The consumer asserts
  // strict FIFO — any torn publication or reordered slot write shows up
  // as an out-of-order value (and as a TSan race on the slot).
  constexpr uint64_t kCount = 100'000;
  SpscQueue<uint64_t> q(8);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!q.TryPush(i)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    uint64_t v;
    if (q.TryPop(&v)) {
      ASSERT_EQ(v, expected) << "SPSC ring broke FIFO across wraparound";
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace bohm
