// Proof suite for adaptive CC repartitioning (src/bohm/repartition.h).
//
// Four properties, per the design:
//  (a) serial equivalence under constant migration — with force_rotate
//      moving *every* partition to a new owner at every batch, the
//      pipeline still produces exactly the golden/serial-reference state
//      across seeded YCSB and SmallBank mixes at pipeline depths 1/2/8;
//  (b) the promotion gate is honoured — a pending migration must not take
//      effect while a source CC thread has unfinished batches sealed
//      under the old map (frozen via test hook, the map epoch stays put);
//  (c) the machinery actually runs when it should — skewed traffic
//      triggers migrations (and, with migration off, none but a gauge
//      that reports the skew), and a CC thread recycles what it retires
//      even when another thread allocated it (freed counters move, state
//      stays right);
//  (d) configuration edges are rejected up front — Start() refuses an
//      interest mask wider than 64 bits and a partition count below the
//      CC thread count, instead of shifting out of range at runtime.
//
// All waits yield, so the suite is deterministic on a single-core host: a
// frozen thread blocks inside its hook while everyone else progresses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "bohm/engine.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "harness/engines.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

template <typename Pred>
bool WaitUntil(Pred pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// One-shot gate a hook can block on (yielding) until the test opens it.
class Gate {
 public:
  void Open() { open_.store(true, std::memory_order_release); }
  void Wait() {
    while (!open_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<bool> open_{false};
};

/// force_rotate at every batch: the harshest migration schedule the
/// controller supports — every partition changes owner between every pair
/// of consecutive batches (gated on the old owners' watermarks).
AdaptiveCcConfig RotateEveryBatch(uint32_t partitions) {
  AdaptiveCcConfig a;
  a.enabled = true;
  a.partitions = partitions;
  a.interval_batches = 1;
  a.force_rotate = true;
  return a;
}

// ---------------------------------------------------------------------------
// (a) Serial equivalence with migration forced every batch, YCSB mix.
// ---------------------------------------------------------------------------

class AdaptiveYcsbEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(AdaptiveYcsbEquivalence, MatchesGoldenReplayUnderConstantMigration) {
  const auto [depth, seed] = GetParam();
  constexpr uint64_t kRecords = 48;
  constexpr uint32_t kRecordSize = 16;
  constexpr int kTxns = 600;

  YcsbConfig ycsb;
  ycsb.record_count = kRecords;
  ycsb.record_size = kRecordSize;
  ycsb.theta = 0.9;

  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 2;
  cfg.batch_size = 7;
  cfg.pipeline_depth = depth;
  cfg.adaptive = RotateEveryBatch(/*partitions=*/24);
  BohmEngine engine(YcsbCatalog(ycsb), cfg);
  ASSERT_EQ(engine.partition_count(), 24u);
  ASSERT_TRUE(YcsbLoad(ycsb, [&](TableId t, Key k, const void* p) {
                return engine.Load(t, k, p);
              }).ok());
  ASSERT_TRUE(engine.Start().ok());

  std::vector<uint64_t> golden(kRecords, 0);
  Rng rng(seed);
  ScrambledZipf zipf(kRecords, ycsb.theta);
  for (int i = 0; i < kTxns; ++i) {
    std::vector<Key> keys;
    while (keys.size() < 4) {
      Key k = zipf.Next(rng);
      bool dup = false;
      for (Key seen : keys) dup = dup || seen == k;
      if (!dup) keys.push_back(k);
    }
    for (Key k : keys) ++golden[k];
    ASSERT_TRUE(
        engine.Submit(std::make_unique<YcsbRmwProcedure>(keys, kRecordSize))
            .ok());
  }
  engine.WaitForIdle();

  std::vector<char> rec(kRecordSize);
  for (Key k = 0; k < kRecords; ++k) {
    ASSERT_TRUE(engine.ReadLatest(kYcsbTableId, k, rec.data()).ok());
    uint64_t counter = 0;
    std::memcpy(&counter, rec.data(), sizeof(counter));
    EXPECT_EQ(counter, golden[k]) << "depth " << depth << " key " << k;
  }
  EXPECT_EQ(engine.Stats().commits, static_cast<uint64_t>(kTxns));
  // ~86 batches, each rotating all 24 partitions: the machinery really ran.
  EXPECT_GT(engine.Stats().cc_migrations, 0u);
  EXPECT_GT(engine.partition_map_epoch(), 0u);
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndSeeds, AdaptiveYcsbEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(7u, 21u)),
    [](const auto& param_info) {
      return "depth" + std::to_string(std::get<0>(param_info.param)) +
             "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// (a) Serial equivalence with migration forced every batch, SmallBank,
// against a serial reference engine fed the identical seeded stream.
// ---------------------------------------------------------------------------

class AdaptiveSmallBankEquivalence : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(AdaptiveSmallBankEquivalence, MatchesSerialReference) {
  const uint32_t depth = GetParam();
  constexpr uint64_t kSeed = 99;
  constexpr int kTxns = 500;
  SmallBankConfig sb;
  sb.customers = 24;
  sb.spin_us = 0;

  std::map<std::pair<TableId, Key>, uint64_t> reference;
  {
    auto ref = MakeExecutorEngine(EngineKind::k2PL, SmallBankCatalog(sb), 1);
    ASSERT_TRUE(SmallBankLoad(sb, [&](TableId t, Key k, const void* p) {
                  return ref->Load(t, k, p);
                }).ok());
    SmallBankGenerator gen(sb, kSeed);
    for (int i = 0; i < kTxns; ++i) {
      ProcedurePtr p = gen.Make();
      Status s = ref->Execute(*p, 0);
      ASSERT_TRUE(s.ok() || s.IsAborted());
    }
    for (TableId t : {kSbCustomerTable, kSbSavingsTable, kSbCheckingTable}) {
      for (Key c = 0; c < sb.customers; ++c) {
        uint64_t v = 0;
        bool found = false;
        GetProcedure get(t, c, &v, &found);
        ASSERT_TRUE(ref->Execute(get, 0).ok());
        ASSERT_TRUE(found);
        reference[{t, c}] = v;
      }
    }
  }

  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 9;
  cfg.pipeline_depth = depth;
  cfg.adaptive = RotateEveryBatch(/*partitions=*/16);
  BohmEngine engine(SmallBankCatalog(sb), cfg);
  ASSERT_TRUE(SmallBankLoad(sb, [&](TableId t, Key k, const void* p) {
                return engine.Load(t, k, p);
              }).ok());
  ASSERT_TRUE(engine.Start().ok());
  SmallBankGenerator gen(sb, kSeed);
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(engine.Submit(gen.Make()).ok());
  }
  engine.WaitForIdle();

  for (const auto& [rec, want] : reference) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(rec.first, rec.second, &v).ok());
    EXPECT_EQ(v, want) << "depth " << depth << " table " << rec.first
                       << " customer " << rec.second;
  }
  EXPECT_GT(engine.Stats().cc_migrations, 0u);
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(Depths, AdaptiveSmallBankEquivalence,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto& param_info) {
                           return "depth" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// (b) The promotion gate: a pending migration must not take effect while
// a source thread still has batches sealed under the old map in flight.
// ---------------------------------------------------------------------------

TEST(AdaptiveGateTest, EpochFrozenWhileSourceThreadInsideOldMapBatch) {
  // Freeze CC thread 0 before it finishes ANY batch: its watermark stays
  // at -1, so the promotion gate (all sources' watermarks >= id - 1) is
  // provably closed for every sealed batch id >= 1 — including batch 1,
  // where the rotation pending map is first staged. Freezing at a later
  // batch would race the sequencer: the gate could legitimately open
  // before the freeze lands.
  constexpr int64_t kFreezeBatch = 0;
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 1;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 4;
  cfg.input_queue_capacity = 1024;
  cfg.adaptive = RotateEveryBatch(/*partitions=*/8);
  BohmEngine engine(OneTable(16), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 16; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen{false};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    if (cc_id == 0 && b == kFreezeBatch) {
      frozen.store(true, std::memory_order_release);
      release.Wait();  // thread 0's watermark is now stuck at 0
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.partition_map_epoch(), 0u);

  constexpr int kTxns = 120;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 16)).ok());
  }

  ASSERT_TRUE(WaitUntil([&] { return frozen.load(); })) << "never froze";
  // Rotation makes every thread a migration source, so the pending map
  // cannot promote while thread 0 sits inside batch 0 with its watermark
  // at -1: every sealed batch id >= 1 needs thread 0's watermark at
  // id - 1 >= 0. Give the sequencer time to (incorrectly) promote anyway.
  ASSERT_TRUE(WaitUntil([&] { return engine.last_sealed_batch() >= 2; }))
      << "sequencer never ran ahead of the frozen thread";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(engine.partition_map_epoch(), 0u)
      << "migration promoted while a source thread had old-map batches in "
         "flight";
  EXPECT_EQ(engine.Stats().cc_migrations, 0u);

  release.Open();
  engine.WaitForIdle();
  // With the source released the gate opens on the next sealed batch.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 16)).ok());
  }
  engine.WaitForIdle();
  EXPECT_GT(engine.partition_map_epoch(), 0u);
  EXPECT_GT(engine.Stats().cc_migrations, 0u);

  uint64_t total = 0;
  for (Key k = 0; k < 16; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns + 20));
  engine.Stop();
}

// ---------------------------------------------------------------------------
// (c) Skewed traffic triggers migrations without any force knob.
// ---------------------------------------------------------------------------

// With migration off the same traffic runs on the same layout and map:
// no migration, but the gauge reports the real one-sided load.
class AdaptiveSkewTest : public ::testing::TestWithParam<bool> {};

TEST_P(AdaptiveSkewTest, SkewedTrafficMigratesPartitions) {
  const bool migrate = GetParam();
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 1;
  cfg.batch_size = 8;
  cfg.pipeline_depth = 4;
  cfg.input_queue_capacity = 4096;
  cfg.adaptive.enabled = migrate;
  cfg.adaptive.partitions = 64;
  cfg.adaptive.interval_batches = 1;
  cfg.adaptive.max_imbalance = 1.05;
  BohmEngine engine(OneTable(256), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 256; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  // All traffic goes to keys whose partitions thread 0 owns initially
  // (owners[p] = p % 2, so even partitions). Several distinct partitions,
  // so the greedy rebalancer always has a movable one.
  const BohmTable* table = engine.db().table(0);
  std::vector<Key> hot;
  for (Key k = 0; k < 256 && hot.size() < 12; ++k) {
    if (table->PartitionOf(k) % 2 == 0) hot.push_back(k);
  }
  ASSERT_GE(hot.size(), 4u);

  ASSERT_TRUE(engine.Start().ok());
  uint64_t submitted = 0;
  for (int round = 0; round < 40 && engine.Stats().cc_migrations == 0;
       ++round) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(engine
                      .Submit(std::make_unique<IncrementProcedure>(
                          0, hot[static_cast<size_t>(i) % hot.size()]))
                      .ok());
      ++submitted;
    }
    engine.WaitForIdle();
  }
  if (migrate) {
    EXPECT_GT(engine.Stats().cc_migrations, 0u)
        << "one-sided traffic never triggered a migration";
    EXPECT_GT(engine.partition_map_epoch(), 0u);
  } else {
    EXPECT_EQ(engine.Stats().cc_migrations, 0u);
    EXPECT_EQ(engine.partition_map_epoch(), 0u);
    // Thread 0 carries all the load: max/mean = 2.0, well above the
    // threshold a migrating controller would act on.
    EXPECT_GT(engine.Stats().cc_imbalance_x1000,
              static_cast<uint64_t>(cfg.adaptive.max_imbalance * 1000));
  }
  uint64_t total = 0;
  for (Key k : hot) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, submitted);
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(MigrationOnOff, AdaptiveSkewTest,
                         ::testing::Bool(), [](const auto& param_info) {
                           return param_info.param ? "migration_on"
                                                   : "migration_off";
                         });

// ---------------------------------------------------------------------------
// (c) A CC thread recycles every version it retires into its own pool,
// including versions another thread allocated, with migrations churning.
// ---------------------------------------------------------------------------

TEST(AdaptiveGcTest, ThreadRecyclesRetireesAllocatedElsewhereAndStateStaysRight) {
  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 2;
  cfg.batch_size = 8;
  cfg.pipeline_depth = 2;  // tight ring: GC must run to reuse slots
  cfg.gc_enabled = true;
  cfg.input_queue_capacity = 4096;
  cfg.adaptive = RotateEveryBatch(/*partitions=*/12);
  BohmEngine engine(OneTable(8), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());

  // Hammer 8 keys: every overwrite retires the predecessor version, and
  // with ownership rotating every batch the retiring thread is usually
  // not the allocator — it frees those versions into its own pool.
  constexpr int kTxns = 2000;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 8)).ok());
  }
  engine.WaitForIdle();

  EXPECT_GT(engine.Stats().cc_migrations, 0u);
  EXPECT_GT(engine.gc_freed_versions(), 0u)
      << "GC never freed anything despite constant overwrites";
  uint64_t total = 0;
  for (Key k = 0; k < 8; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  engine.Stop();
}

// ---------------------------------------------------------------------------
// (d) Start() validation: mask width and partition floor.
// ---------------------------------------------------------------------------

TEST(AdaptiveConfigTest, StartRejectsInterestMaskWiderThan64Threads) {
  BohmConfig cfg;
  cfg.cc_threads = 65;  // 1ull << 64 would be undefined
  cfg.exec_threads = 1;
  ASSERT_TRUE(cfg.interest_preprocessing);
  BohmEngine engine(OneTable(8), cfg);
  Status s = engine.Start();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The rejected engine never started; Submit refuses and Stop is clean.
  EXPECT_FALSE(
      engine.Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  engine.Stop();
}

TEST(AdaptiveConfigTest, Above64ThreadsRunsWithPreprocessingOff) {
  BohmConfig cfg;
  cfg.cc_threads = 65;
  cfg.exec_threads = 1;
  cfg.batch_size = 4;
  cfg.interest_preprocessing = false;  // the documented escape hatch
  BohmEngine engine(OneTable(8), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  constexpr int kTxns = 40;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 8)).ok());
  }
  engine.WaitForIdle();
  uint64_t total = 0;
  for (Key k = 0; k < 8; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  engine.Stop();
}

TEST(AdaptiveConfigTest, StartRejectsFewerPartitionsThanCcThreads) {
  BohmConfig cfg;
  cfg.cc_threads = 4;
  cfg.exec_threads = 1;
  cfg.adaptive.enabled = true;
  cfg.adaptive.partitions = 2;
  BohmEngine engine(OneTable(8), cfg);
  EXPECT_TRUE(engine.Start().IsInvalidArgument());
  engine.Stop();
}

TEST(AdaptiveConfigTest, AdaptiveOffKeepsStaticAssignmentObservables) {
  // The migration knob never changes the physical layout: the same config
  // with it on and off gets the same partition count, at one CC thread
  // (a single partition) and at several.
  for (uint32_t cc : {1u, 3u}) {
    BohmConfig cfg;
    cfg.cc_threads = cc;
    cfg.adaptive.enabled = true;
    const uint32_t with_migration =
        BohmEngine(OneTable(16), cfg).partition_count();
    cfg.adaptive.enabled = false;
    EXPECT_EQ(BohmEngine(OneTable(16), cfg).partition_count(),
              with_migration)
        << "cc_threads " << cc;
    EXPECT_EQ(with_migration, cc == 1 ? 1u : 128u) << "cc_threads " << cc;
  }

  // Off: the initial map forever.
  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 1;
  BohmEngine engine(OneTable(16), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 16; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 16)).ok());
  }
  engine.WaitForIdle();
  EXPECT_EQ(engine.Stats().cc_migrations, 0u);
  EXPECT_EQ(engine.partition_map_epoch(), 0u);
  engine.Stop();
}

// ---------------------------------------------------------------------------
// TSan litmus for rule R7: a rotating owner's version-chain head stores
// must be visible to the next owner through the watermark-gate/feed-push
// chain. Run under the tsan preset (and 50x seeded in CI tsan-stress);
// a missing release/acquire on the handoff shows up as a data race on the
// index chain heads or the version payloads.
// ---------------------------------------------------------------------------

TEST(AdaptiveHandoffTest, RotatingOwnershipPublishesHeadStores) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 4;
  cfg.input_queue_capacity = 4096;
  cfg.adaptive = RotateEveryBatch(/*partitions=*/8);
  BohmEngine engine(OneTable(4), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 4; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());

  // 4 keys, every transaction touches one: consecutive batches write the
  // same chains from alternating owner threads.
  constexpr int kTxns = 1000;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 4)).ok());
  }
  engine.WaitForIdle();

  uint64_t total = 0;
  for (Key k = 0; k < 4; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  EXPECT_GT(engine.Stats().cc_migrations, 0u);
  engine.Stop();
}

}  // namespace
}  // namespace bohm
