#include "bohm/table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bohm/txn_state.h"
#include "bohm/version.h"

namespace bohm {
namespace {

TableSpec Spec(uint64_t cap) {
  TableSpec s;
  s.id = 0;
  s.name = "t";
  s.record_size = 8;
  s.capacity = cap;
  return s;
}

TEST(BohmTableTest, PartitionIsStable) {
  BohmTable t(Spec(1000), 4);
  for (Key k = 0; k < 100; ++k) {
    EXPECT_EQ(t.PartitionOf(k), t.PartitionOf(k));
    EXPECT_LT(t.PartitionOf(k), 4u);
  }
}

TEST(BohmTableTest, PartitionsCoverAllThreads) {
  BohmTable t(Spec(100000), 4);
  std::vector<bool> hit(4, false);
  for (Key k = 0; k < 1000; ++k) hit[t.PartitionOf(k)] = true;
  for (bool h : hit) EXPECT_TRUE(h);
}

// Sentinel version pointers: the table never dereferences heads, so tests
// that only exercise index behaviour can use tagged values.
Version* Sentinel(uintptr_t tag) { return reinterpret_cast<Version*>(tag); }

TEST(BohmTableTest, GetOrInsertFindsSame) {
  BohmTable t(Spec(100), 2);
  Key k = 42;
  uint32_t p = t.PartitionOf(k);
  bool ins1 = false;
  bool ins2 = true;
  BohmIndexEntry* e1 = t.GetOrInsert(p, k, Sentinel(1), &ins1);
  BohmIndexEntry* e2 = t.GetOrInsert(p, k, Sentinel(2), &ins2);
  EXPECT_TRUE(ins1);
  EXPECT_FALSE(ins2);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(t.Find(p, k), e1);
  // The losing initial_head is NOT installed; the first insert's head
  // stays (the caller links further versions itself).
  EXPECT_EQ(e1->head.load(), Sentinel(1));
}

TEST(BohmTableTest, FindMissingReturnsNull) {
  BohmTable t(Spec(100), 2);
  EXPECT_EQ(t.Find(t.PartitionOf(5), 5), nullptr);
}

TEST(BohmTableTest, EntryCountPerPartition) {
  BohmTable t(Spec(1000), 2);
  uint64_t total = 0;
  for (Key k = 0; k < 100; ++k) {
    bool inserted = false;
    (void)t.GetOrInsert(t.PartitionOf(k), k, Sentinel(k + 1), &inserted);
    EXPECT_TRUE(inserted);
  }
  for (uint32_t p = 0; p < 2; ++p) total += t.EntryCount(p);
  EXPECT_EQ(total, 100u);
}

TEST(BohmTableTest, BucketHashIndependentOfPartitionHash) {
  // Regression: partition = HashKey(key) % P and bucket = hash & mask
  // used the SAME hash. With a power-of-two partition count (adaptive
  // mode uses 128-1024) every key in partition p satisfies
  // hash ≡ p (mod P), so only buckets/P bucket slots per partition were
  // reachable — chains ran ~P times longer than the ~1-per-bucket
  // sizing, roughly halving whole-pipeline throughput at P=128. With an
  // independent BucketHash, a dense keyspace at the sized capacity must
  // keep chains near 1 (generous bound: 8).
  constexpr uint64_t kN = 100'000;
  constexpr uint32_t kParts = 128;
  BohmTable t(Spec(kN), kParts);
  for (Key k = 0; k < kN; ++k) {
    bool inserted = false;
    (void)t.GetOrInsert(t.PartitionOf(k), k, Sentinel(k + 1), &inserted);
    ASSERT_TRUE(inserted);
  }
  for (uint32_t p = 0; p < kParts; ++p) {
    EXPECT_LE(t.MaxChainLength(p), 8u) << "partition " << p;
  }
}

TEST(BohmTableTest, ManyKeysNoCollisionLoss) {
  constexpr uint64_t kN = 50000;
  BohmTable t(Spec(kN), 3);
  for (Key k = 0; k < kN; ++k) {
    bool inserted = false;
    (void)t.GetOrInsert(t.PartitionOf(k), k, Sentinel(k + 1), &inserted);
  }
  for (Key k = 0; k < kN; ++k) {
    ASSERT_NE(t.Find(t.PartitionOf(k), k), nullptr) << k;
  }
}

TEST(BohmTableTest, ConcurrentReadersDuringOwnerInserts) {
  // One owner thread inserts into its partition while readers look up:
  // readers must only ever see fully-initialized entries (correct key,
  // initialized head, never a crash), the single-writer/multi-reader
  // discipline of Section 3.3.1.
  //
  // `published` starts at -1 ("nothing inserted yet"): the seed version of
  // this test initialized it to 0, so a reader racing ahead of the owner's
  // very first insert probed key 0 before it existed and reported a
  // missing entry — the ~5/12 TSan flake of ROADMAP item 1b.
  BohmTable t(Spec(100000), 1);  // single partition: all keys owned by 0
  constexpr int64_t kMax = 20000;
  std::atomic<int64_t> published{-1};
  std::atomic<bool> failed{false};

  std::thread owner([&] {
    for (int64_t k = 0; k < kMax; ++k) {
      bool inserted = false;
      (void)t.GetOrInsert(0, static_cast<Key>(k), Sentinel(k + 1), &inserted);
      published.store(k, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (published.load(std::memory_order_acquire) < kMax - 1) {
        int64_t upto = published.load(std::memory_order_acquire);
        for (int64_t k = 0; k <= upto; k += 97) {
          BohmIndexEntry* e = t.Find(0, static_cast<Key>(k));
          if (e == nullptr || e->key != static_cast<Key>(k) ||
              e->head.load(std::memory_order_acquire) == nullptr) {
            failed.store(true, std::memory_order_release);
            return;
          }
        }
      }
    });
  }
  owner.join();
  for (auto& r : readers) r.join();
  EXPECT_FALSE(failed.load());
}

TEST(BohmTableTest, FindNeverObservesUninitializedHead) {
  // Publication-ordering regression (ROADMAP item 1b): GetOrInsert must
  // install the version-chain head *before* release-publishing the entry
  // into the bucket chain. The readers chase the owner's publication edge
  // — they spin on Find() for exactly the key being inserted and inspect
  // the head the moment the entry appears — so an implementation that
  // publishes first and installs the head afterwards (the seed tree's
  // cc_worker/Load sequence) is caught within a handful of keys; under
  // TSan's scheduler the window is torn wide open.
  BohmTable t(Spec(100000), 1);
  constexpr int64_t kMax = 20000;
  std::atomic<int64_t> inserting{-1};
  std::atomic<uint64_t> bad_heads{0};
  std::atomic<uint64_t> observed{0};

  // Readers sweep every key exactly once and terminate on their own: once
  // the owner has inserted key k, Find(k) eventually succeeds, so the
  // sweep always completes — no stop flag, and each reader deterministically
  // inspects all kMax entries however the threads are scheduled.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int64_t k = 0; k < kMax;) {
        // Only probe keys the owner has started inserting; probing ahead
        // would just return nullptr (absent key), which is fine but noise.
        if (inserting.load(std::memory_order_acquire) < k) continue;
        BohmIndexEntry* e = t.Find(0, static_cast<Key>(k));
        if (e == nullptr) continue;  // not published yet: retry same key
        observed.fetch_add(1, std::memory_order_relaxed);
        if (e->head.load(std::memory_order_acquire) == nullptr) {
          bad_heads.fetch_add(1, std::memory_order_relaxed);
        }
        ++k;
      }
    });
  }

  for (int64_t k = 0; k < kMax; ++k) {
    inserting.store(k, std::memory_order_release);
    bool inserted = false;
    (void)t.GetOrInsert(0, static_cast<Key>(k), Sentinel(k + 1), &inserted);
    ASSERT_TRUE(inserted);
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad_heads.load(), 0u)
      << "a Find() returned an entry whose version chain head was not yet "
         "installed — entry published before initialization";
  EXPECT_EQ(observed.load(), 2u * kMax);
}

TEST(VersionAllocatorTest, AllocInitializesFields) {
  VersionAllocator alloc;
  Version* v = alloc.Alloc(0, 8);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->begin_ts, kLoadTs);
  EXPECT_EQ(v->end_ts.load(), kInfinityTs);
  EXPECT_FALSE(v->ready());
  EXPECT_FALSE(v->tombstone());
  EXPECT_EQ(v->prev, nullptr);
  EXPECT_EQ(v->producer, nullptr);
}

TEST(VersionAllocatorTest, FreeListRecycles) {
  VersionAllocator alloc;
  Version* v = alloc.Alloc(0, 8);
  v->begin_ts = 55;
  v->flags.store(kVersionReady, std::memory_order_relaxed);
  alloc.Free(v);
  EXPECT_EQ(alloc.FreeCount(), 1u);
  Version* v2 = alloc.Alloc(0, 8);
  EXPECT_EQ(v2, v);  // recycled
  EXPECT_EQ(v2->begin_ts, kLoadTs);  // re-initialized
  EXPECT_FALSE(v2->ready());
  EXPECT_EQ(alloc.FreeCount(), 0u);
}

TEST(VersionAllocatorTest, PerTableFreeLists) {
  VersionAllocator alloc;
  Version* small = alloc.Alloc(0, 8);
  Version* big = alloc.Alloc(1, 1000);
  alloc.Free(small);
  alloc.Free(big);
  EXPECT_EQ(alloc.FreeCount(), 2u);
  // Allocation for table 1 must come from table 1's list (payload size!).
  Version* big2 = alloc.Alloc(1, 1000);
  EXPECT_EQ(big2, big);
  std::memset(big2->data(), 0xEE, 1000);  // fully usable
}

TEST(VersionAllocatorTest, FreeAcceptsVersionOfAnotherAllocator) {
  // After a partition migration the retiring CC thread frees versions
  // that another thread's allocator produced into its own pool.
  VersionAllocator a;
  VersionAllocator b;
  BohmTxn producer;
  Version* pred = a.Alloc(0, 8);
  Version* v = a.Alloc(0, 8);
  v->begin_ts = 7;
  v->end_ts.store(9, std::memory_order_relaxed);
  v->flags.store(kVersionReady | kVersionTombstone, std::memory_order_relaxed);
  v->producer = &producer;
  v->prev = pred;
  const size_t a_free = a.FreeCount();

  b.Free(v);
  EXPECT_EQ(b.FreeCount(), 1u);
  EXPECT_EQ(a.FreeCount(), a_free);  // nothing went back to the allocator
  Version* again = b.Alloc(0, 8);
  EXPECT_EQ(again, v);  // handed out again by the allocator it was freed to
  EXPECT_EQ(b.FreeCount(), 0u);
  EXPECT_EQ(again->begin_ts, kLoadTs);
  EXPECT_EQ(again->end_ts.load(), kInfinityTs);
  EXPECT_EQ(again->flags.load(), 0u);
  EXPECT_EQ(again->producer, nullptr);
  EXPECT_EQ(again->prev, nullptr);
  EXPECT_EQ(a.FreeCount(), a_free);
}

TEST(VersionTest, PayloadContiguous) {
  VersionAllocator alloc;
  Version* v = alloc.Alloc(0, 64);
  EXPECT_EQ(v->data(), static_cast<void*>(v + 1));
  std::memset(v->data(), 0x11, 64);
}

TEST(BohmDatabaseTest, TablesConstructed) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(Spec(100)).ok());
  BohmDatabase db(c, 4);
  EXPECT_NE(db.table(0), nullptr);
  EXPECT_EQ(db.table(1), nullptr);
  EXPECT_EQ(db.partitions(), 4u);
  EXPECT_EQ(db.table(0)->partitions(), 4u);
}

}  // namespace
}  // namespace bohm
