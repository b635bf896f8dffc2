// Proof suite for the streamed Bohm pipeline (epoch watermarks + SPSC
// handoff, replacing the one-barrier-per-batch CC handoff).
//
// Three properties, per the design:
//  (a) serial equivalence — the streamed pipeline produces exactly the
//      golden/serial-reference state across seeded YCSB and SmallBank
//      mixes at pipeline depths 1, 2 and 8;
//  (b) the watermark is honoured — with a CC thread frozen mid-batch via
//      a test hook, execution never enters a batch the CC watermark fold
//      has not passed (the streaming analogue of the index test
//      FindNeverObservesUninitializedHead);
//  (c) overlap really happens — execution commits batch b while a CC
//      thread is inside batch b+1, and CC threads cross batch boundaries
//      independently of each other (impossible under the old barrier), so
//      the optimization cannot silently regress to a barrier;
//  (d) slot reuse waits for stale producer pointers — an exec thread
//      frozen between seeing an unready read dependency and claiming its
//      producer keeps the producer's batch slot from being recycled, even
//      after every thread has finished that batch (rule R8);
//  (e) idle stages park (rule R9) — an idle engine uses well under one
//      core, and a pipeline whose stages park between bursts, with one
//      exec thread always finishing last, still matches the serial oracle
//      and survives recovery (an exec thread parked with a stale pin would
//      deadlock the slot-reuse gate);
//  (f) back-pressured waits park too — with execution frozen, a client
//      facing a full input queue and a sequencer waiting for a batch slot
//      use almost no CPU, and the stream still matches the serial oracle.
//
// The suite's own waits yield (std::this_thread::yield), and the engine's
// waits park or yield, so the suite is deterministic on a single-core host
// too: a frozen thread blocks inside its hook and everyone else keeps
// making progress.
#include <gtest/gtest.h>

#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
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

/// Yield-waits until `pred()` holds or `timeout_ms` elapses; returns
/// whether the predicate held. Every blocking assertion in this suite
/// goes through here so a broken pipeline fails the test instead of
/// hanging the binary until the CTest timeout.
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
  bool IsOpen() const { return open_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> open_{false};
};

// ---------------------------------------------------------------------------
// (a) Serial equivalence across pipeline depths, YCSB mix.
// ---------------------------------------------------------------------------

class StreamedYcsbEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(StreamedYcsbEquivalence, MatchesGoldenReplayAcrossDepths) {
  const auto [depth, seed] = GetParam();
  constexpr uint64_t kRecords = 48;
  constexpr uint32_t kRecordSize = 16;
  constexpr int kTxns = 600;

  YcsbConfig ycsb;
  ycsb.record_count = kRecords;
  ycsb.record_size = kRecordSize;
  ycsb.theta = 0.9;  // contended: hot keys cross CC partitions constantly

  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 2;
  cfg.batch_size = 7;  // deliberately odd so batches straddle txn patterns
  cfg.pipeline_depth = depth;
  BohmEngine engine(YcsbCatalog(ycsb), cfg);
  ASSERT_TRUE(YcsbLoad(ycsb, [&](TableId t, Key k, const void* p) {
                return engine.Load(t, k, p);
              }).ok());
  ASSERT_TRUE(engine.Start().ok());

  // Golden replay: each 10RMW increments the counter prefix of its keys
  // exactly once, so the final counter of key k is the number of times k
  // appeared across all transactions.
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
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndSeeds, StreamedYcsbEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(7u, 21u)),
    [](const auto& param_info) {
      return "depth" + std::to_string(std::get<0>(param_info.param)) +
             "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// (a) Serial equivalence across pipeline depths, SmallBank mix, checked
// against a serial reference engine fed the identical seeded stream.
// ---------------------------------------------------------------------------

class StreamedSmallBankEquivalence
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StreamedSmallBankEquivalence, MatchesSerialReference) {
  const uint32_t depth = GetParam();
  constexpr uint64_t kSeed = 99;
  constexpr int kTxns = 500;
  SmallBankConfig sb;
  sb.customers = 24;  // high contention
  sb.spin_us = 0;

  // Serial reference: single-threaded 2PL executes the stream in
  // submission order — exactly the barriered pipeline's semantics.
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

  // Streamed pipeline, same seed, same stream.
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 9;
  cfg.pipeline_depth = depth;
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
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(Depths, StreamedSmallBankEquivalence,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto& param_info) {
                           return "depth" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// (b) Execution never enters a batch the CC watermark has not passed —
// even with a CC thread frozen mid-batch.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, ExecNeverObservesBatchBelowCcWatermark) {
  constexpr int64_t kFreezeBatch = 2;
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 4;
  cfg.input_queue_capacity = 1024;
  BohmEngine engine(OneTable(16), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 16; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen{false};
  std::atomic<bool> watermark_violated{false};
  std::atomic<int64_t> max_exec_batch{-1};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    if (cc_id == 0 && b == kFreezeBatch) {
      frozen.store(true, std::memory_order_release);
      release.Wait();  // CC thread 0 parks here, mid-batch
    }
  };
  hooks->exec_batch_start = [&](uint32_t, int64_t b) {
    // The admission invariant: min(cc_watermark) >= b at entry. The fold
    // is monotone, so reading it after admission cannot hide a violation.
    if (engine.CcWatermark() < b) {
      watermark_violated.store(true, std::memory_order_release);
    }
    int64_t seen = max_exec_batch.load(std::memory_order_relaxed);
    while (seen < b && !max_exec_batch.compare_exchange_weak(
                           seen, b, std::memory_order_acq_rel)) {
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTxns = 200;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 16)).ok());
  }

  // CC thread 0 must reach the freeze point; its watermark is then stuck
  // at kFreezeBatch - 1, capping execution there no matter how far the
  // sequencer and CC thread 1 run ahead.
  ASSERT_TRUE(WaitUntil([&] { return frozen.load(); })) << "never froze";
  ASSERT_TRUE(WaitUntil([&] { return engine.Watermark() >= kFreezeBatch - 1; }))
      << "execution did not reach the pre-freeze batches";
  // Give execution ample opportunity to (incorrectly) run ahead.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(engine.CcWatermark(), kFreezeBatch - 1);
  EXPECT_EQ(engine.Watermark(), kFreezeBatch - 1);
  EXPECT_LE(max_exec_batch.load(), kFreezeBatch - 1);
  EXPECT_FALSE(watermark_violated.load());

  release.Open();
  engine.WaitForIdle();
  EXPECT_FALSE(watermark_violated.load());

  uint64_t total = 0;
  for (Key k = 0; k < 16; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  engine.Stop();
}

// ---------------------------------------------------------------------------
// (d) A producer pointer read out of an unready version keeps the
// producer's batch slot alive (rule R8).
// ---------------------------------------------------------------------------

/// An increment whose Run() first blocks on a gate, so the thread that
/// claimed it is parked inside the transaction.
class GatedIncrement final : public StoredProcedure {
 public:
  GatedIncrement(Key key, Gate* gate) : inner_(0, key), gate_(gate) {
    set_ = inner_.rwset();
  }
  void Run(TxnOps& ops) override {
    gate_->Wait();
    inner_.Run(ops);
  }

 private:
  IncrementProcedure inner_;
  Gate* gate_;
};

TEST(BohmStreamingTest, SlotReuseWaitsForThreadHoldingProducerPointer) {
  // Depth 2, two exec threads, two transactions per batch: exec thread 0
  // runs index 0 of each batch, thread 1 runs index 1. Batches 0 and 1
  // hold one transaction each; batch 2 is {P, T} and batch 3 is {R, Q},
  // where R increments T's key. Thread 1 claims T and parks inside it,
  // so thread 0 finds R's read unready and is frozen right before its
  // claim on T. Then T finishes and thread 1 completes batches 2 and 3:
  // every exec watermark has passed batch 2, and batch 4 would recycle
  // batch 2's slot — T's memory — under thread 0's pointer.
  Gate release_first, release_t, release_claim;
  std::atomic<bool> in_first{false}, at_claim{false};
  BohmConfig cfg;
  cfg.cc_threads = 1;
  cfg.exec_threads = 2;
  cfg.batch_size = 2;
  cfg.pipeline_depth = 2;
  cfg.input_queue_capacity = 64;
  BohmEngine engine(OneTable(8), cfg);
  // A failed assertion must not leave a pipeline thread parked in a hook
  // while the engine's destructor joins it.
  struct OpenOnExit {
    std::vector<Gate*> gates;
    ~OpenOnExit() {
      for (Gate* g : gates) g->Open();
    }
  } open_on_exit{{&release_first, &release_t, &release_claim}};
  uint64_t zero = 0;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->exec_batch_start = [&](uint32_t exec_id, int64_t b) {
    if (exec_id == 0 && b == 0) {
      in_first.store(true, std::memory_order_release);
      release_first.Wait();
    }
    // Thread 1 enters batch 2 only once thread 0 has finished batch 1, so
    // the pin it publishes on entry lets the sequencer seal batch 3.
    if (exec_id == 1 && b == 2) {
      (void)WaitUntil([&] { return engine.Watermark() >= 1; });
    }
  };
  hooks->exec_dependency = [&](uint32_t exec_id, int64_t producer_batch) {
    if (exec_id == 0 && producer_batch == 2) {
      at_claim.store(true, std::memory_order_release);
      release_claim.Wait();
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  auto increment = [&](Key k) {
    return engine.Submit(std::make_unique<IncrementProcedure>(0, k)).ok();
  };
  // With thread 0 frozen in batch 0 the sequencer cannot seal batch 2, so
  // everything submitted afterwards is queued and batched two at a time.
  ASSERT_TRUE(increment(0));
  ASSERT_TRUE(WaitUntil([&] { return in_first.load(); }));
  ASSERT_TRUE(increment(1));
  ASSERT_TRUE(WaitUntil([&] { return engine.last_sealed_batch() >= 1; }));
  ASSERT_TRUE(increment(2));  // P
  ASSERT_TRUE(engine.Submit(std::make_unique<GatedIncrement>(3, &release_t))
                  .ok());  // T
  for (Key k : {3, 4, 5, 6}) ASSERT_TRUE(increment(k));  // R, Q, batch 4
  release_first.Open();

  ASSERT_TRUE(WaitUntil([&] { return at_claim.load(); }))
      << "exec thread 0 never found T unready";
  release_t.Open();
  ASSERT_TRUE(WaitUntil([&] { return engine.Watermark() >= 2; }))
      << "exec thread 1 never finished batch 2";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(engine.last_sealed_batch(), 3)
      << "batch 2's slot was reused while exec thread 0 held a pointer to "
         "its transaction";

  release_claim.Open();
  engine.WaitForIdle();
  EXPECT_EQ(engine.last_sealed_batch(), 4);
  for (Key k = 0; k < 7; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    EXPECT_EQ(v, k == 3 ? 2u : 1u) << "key " << k;
  }
  engine.Stop();
}

// ---------------------------------------------------------------------------
// (c) Overlap: execution commits batch b while a CC thread is inside
// batch b+1.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, ExecCommitsBatchWhileCcInsideNextBatch) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 4;
  cfg.input_queue_capacity = 1024;
  BohmEngine engine(OneTable(8), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen_in_next{false};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    if (cc_id == 0 && b == 1) {
      frozen_in_next.store(true, std::memory_order_release);
      release.Wait();  // CC thread 0 is now *inside* batch 1
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTxns = 60;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 8)).ok());
  }

  ASSERT_TRUE(WaitUntil([&] { return frozen_in_next.load(); }))
      << "CC thread 0 never entered batch 1";
  // With CC thread 0 frozen inside batch 1, batch 0 is below the CC
  // watermark and must flow through execution to commit — the overlap the
  // barriered handoff's serialized schedule never exhibits under test
  // control. Watermark() >= 0 means every exec thread finished batch 0.
  ASSERT_TRUE(WaitUntil([&] { return engine.Watermark() >= 0; }))
      << "execution never committed batch 0 while CC was inside batch 1";
  EXPECT_TRUE(frozen_in_next.load());
  EXPECT_GT(engine.Stats().commits, 0u);

  release.Open();
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

// ---------------------------------------------------------------------------
// (c) No silent barrier regression: CC threads cross batch boundaries
// independently. Under the replaced per-batch barrier, no CC thread could
// enter batch b+1 while a peer was still inside batch b.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, CcThreadsStreamIndependentlyAcrossBatches) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 2;
  cfg.pipeline_depth = 8;
  cfg.input_queue_capacity = 1024;
  BohmEngine engine(OneTable(16), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 16; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen{false};
  std::atomic<int64_t> cc1_max_batch{-1};
  // Batches each pipeline thread has visited. Every thread must visit
  // 0, 1, 2, ... in order, so the next id it visits is this count; a
  // skipped or repeated batch fails here, as it happens. Each count is
  // written only by its own thread and read after Stop() joins it.
  int64_t cc_visits[2] = {0, 0};
  int64_t exec_visits[2] = {0, 0};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->exec_batch_start = [&](uint32_t exec_id, int64_t b) {
    EXPECT_EQ(b, exec_visits[exec_id]++) << "exec thread " << exec_id;
  };
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    EXPECT_EQ(b, cc_visits[cc_id]++) << "CC thread " << cc_id;
    if (cc_id == 0 && b == 1) {
      frozen.store(true, std::memory_order_release);
      release.Wait();
    }
    if (cc_id == 1) {
      int64_t seen = cc1_max_batch.load(std::memory_order_relaxed);
      while (seen < b && !cc1_max_batch.compare_exchange_weak(
                             seen, b, std::memory_order_acq_rel)) {
      }
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTxns = 120;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 16)).ok());
  }

  ASSERT_TRUE(WaitUntil([&] { return frozen.load(); }))
      << "CC thread 0 never entered batch 1";
  // Execution is pinned at batch 0 (CC fold stuck at 0), so the sequencer
  // can seal up to pipeline_depth batches — CC thread 1 must stream
  // through several of them while its peer stays frozen in batch 1. If
  // the handoff ever regresses to a barrier, CC thread 1 parks at batch 1
  // and this times out.
  ASSERT_TRUE(WaitUntil([&] { return cc1_max_batch.load() >= 3; }))
      << "CC stage regressed to lockstep: peer never streamed ahead of "
         "the frozen thread (cc1 reached batch "
      << cc1_max_batch.load() << ")";
  EXPECT_TRUE(frozen.load());

  // Catch-up: batches 2, 3, ... are already sealed when CC thread 0 is
  // released, so it walks through them without waiting for a seal. That
  // path, like the waiting one, must visit every batch once, in order.
  release.Open();
  engine.WaitForIdle();
  const int64_t sealed = engine.last_sealed_batch();
  uint64_t total = 0;
  for (Key k = 0; k < 16; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  engine.Stop();

  // ... and every thread visited every sealed batch.
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(cc_visits[i], sealed + 1) << "CC thread " << i;
    EXPECT_EQ(exec_visits[i], sealed + 1) << "exec thread " << i;
  }
}

// ---------------------------------------------------------------------------
// Stall attribution: a pipeline throttled at the CC stage charges the
// wait to the right stages.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, StallCountersAttributePipelineWait) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 1;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 2;
  cfg.input_queue_capacity = 1024;
  BohmEngine engine(OneTable(8), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen{false};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    if (cc_id == 0 && b == 1) {
      frozen.store(true, std::memory_order_release);
      release.Wait();
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTxns = 100;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 8)).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return frozen.load(); }));
  // While frozen: the exec thread waits on the CC watermark for batch 1
  // (exec stall); the sequencer finishes sealing up to the depth bound
  // and then waits for slot reuse (sequencer stall); CC thread 1 catches
  // up with the sequencer and waits for the next seal (CC stall).
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  release.Open();
  engine.WaitForIdle();

  const StatsSnapshot s = engine.Stats();
  EXPECT_GT(s.seq_stall_ns, 0u) << "sequencer back-pressure not attributed";
  EXPECT_GT(s.cc_stall_ns, 0u)
      << "CC wait for an unsealed batch not attributed";
  EXPECT_GT(s.exec_stall_ns, 0u) << "exec watermark wait not attributed";
  engine.Stop();
}

// ---------------------------------------------------------------------------
// Degenerate depth and watermark algebra.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, DepthOnePipelineStreamsSerially) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 3;
  cfg.pipeline_depth = 1;  // one batch in flight: the serial reference point
  BohmEngine engine(OneTable(4), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 4; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.config().pipeline_depth, 1u);

  constexpr int kTxns = 300;
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
  EXPECT_EQ(engine.Stats().commits, static_cast<uint64_t>(kTxns));
  engine.Stop();
}

TEST(BohmStreamingTest, WatermarksAreMonotoneAndOrdered) {
  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 2;
  cfg.batch_size = 5;
  cfg.pipeline_depth = 4;
  BohmEngine engine(OneTable(32), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 32; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> exec_regressed{false};
  std::atomic<bool> cc_regressed{false};
  std::atomic<bool> order_violated{false};
  std::thread monitor([&] {
    int64_t last_exec = INT64_MIN, last_cc = INT64_MIN;
    while (!stop.load(std::memory_order_acquire)) {
      // Read exec first: exec <= cc holds for reads in this order because
      // the exec fold can only admit batches the (monotone) CC fold
      // already passed.
      const int64_t e = engine.Watermark();
      const int64_t c = engine.CcWatermark();
      if (e < last_exec) exec_regressed.store(true);
      if (c < last_cc) cc_regressed.store(true);
      if (e > c) order_violated.store(true);
      last_exec = e;
      last_cc = c;
      std::this_thread::yield();
    }
  });

  Rng rng(4242);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(engine
                    .Submit(std::make_unique<IncrementProcedure>(
                        0, rng.Uniform(32)))
                    .ok());
  }
  engine.WaitForIdle();
  stop.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_FALSE(exec_regressed.load()) << "execution watermark regressed";
  EXPECT_FALSE(cc_regressed.load()) << "CC watermark regressed";
  EXPECT_FALSE(order_violated.load())
      << "execution watermark overtook the CC watermark";
  engine.Stop();
}

// ---------------------------------------------------------------------------
// (e) Idle stages park on the engine's IdleEvent (rule R9).
// ---------------------------------------------------------------------------

/// A fresh log directory under the system temp dir, removed on exit.
class TempLogDir {
 public:
  explicit TempLogDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              (name + "_" + std::to_string(reinterpret_cast<uintptr_t>(this)))) {
    std::filesystem::remove_all(path_);
  }
  ~TempLogDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Two CC and two exec threads with the durable log on: every stage that
/// can park (sequencer, CC, exec, log writer) is present.
BohmConfig ParkingConfig(const std::string& dir, uint32_t depth) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 4;
  cfg.pipeline_depth = depth;
  cfg.durability.enabled = true;
  cfg.durability.dir = dir;
  return cfg;
}

#if defined(__linux__)
uint64_t CpuClockNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ProcessCpuNanos() { return CpuClockNanos(CLOCK_PROCESS_CPUTIME_ID); }

TEST(BohmParkingTest, IdleEngineUsesLittleCpu) {
  TempLogDir dir("bohm_parking_idle");
  BohmEngine engine(OneTable(8), ParkingConfig(dir.str(), 4));
  uint64_t zero = 0;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 8)).ok());
  }
  engine.WaitForIdle();
  // Let the last fsync and every stage's spin budget run out.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t c0 = ProcessCpuNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t cpu_ns = ProcessCpuNanos() - c0;
  const auto wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  // Six engine threads that spun would burn about six cores here.
  EXPECT_LT(cpu_ns, wall_ns / 4)
      << "idle engine used " << cpu_ns << " ns of CPU in " << wall_ns
      << " ns";
  EXPECT_EQ(engine.Stats().commits, 20u);
  engine.Stop();
}

uint64_t ThreadCpuNanos(pthread_t thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0;
  return CpuClockNanos(clock);
}

/// User plus system CPU of this process's only thread named `name`, from
/// /proc/self/task/*/stat; UINT64_MAX unless exactly one thread has it.
uint64_t NamedThreadCpuNanos(const std::string& name) {
  uint64_t cpu_ns = UINT64_MAX;
  int found = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::string comm;
    std::getline(std::ifstream(task.path() / "comm"), comm);
    if (comm != name) continue;
    ++found;
    std::string stat;
    std::getline(std::ifstream(task.path() / "stat"), stat);
    // utime and stime are fields 14 and 15; the fields after the
    // parenthesized command name start at field 3.
    std::istringstream rest(stat.substr(stat.rfind(')') + 2));
    std::string field;
    for (int i = 3; i < 14; ++i) rest >> field;
    uint64_t utime = 0, stime = 0;
    rest >> utime >> stime;
    cpu_ns = (utime + stime) * (1000000000ull /
                                static_cast<uint64_t>(sysconf(_SC_CLK_TCK)));
  }
  return found == 1 ? cpu_ns : UINT64_MAX;
}

TEST(BohmParkingTest, BackPressuredClientAndSequencerPark) {
  // Depth 2, batches of 4, an input queue of 8, and the one exec thread
  // frozen in exec_batch_start at batch 0. Batches 0 and 1 get one
  // transaction each, so the test knows exactly when the queue is full:
  // the sequencer then waits to reuse batch 0's slot and the client waits
  // on a full input queue. Both waits are back-pressure with no end in
  // sight, so both must park rather than spin.
  constexpr int kTxns = 64;
  constexpr uint64_t kKeys = 8;
  constexpr int kQueue = 8;
  Gate release;
  BohmConfig cfg;
  cfg.cc_threads = 1;
  cfg.exec_threads = 1;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 2;
  cfg.input_queue_capacity = kQueue;
  BohmEngine engine(OneTable(kKeys), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->exec_batch_start = [&](uint32_t, int64_t b) {
    if (b == 0) release.Wait();
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  std::vector<uint64_t> oracle(kKeys, 0);
  std::atomic<int> returned{0};
  std::atomic<bool> client_ok{true};
  std::thread client([&] {
    for (int i = 0; i < kTxns; ++i) {
      const Key key = static_cast<Key>(i) % kKeys;
      const uint64_t delta = 1 + static_cast<uint64_t>(i) % 5;
      oracle[key] += delta;
      if (!engine.Submit(std::make_unique<IncrementProcedure>(0, key, delta))
               .ok()) {
        client_ok.store(false);
      }
      returned.fetch_add(1, std::memory_order_acq_rel);
      // One transaction each in batches 0 and 1.
      if (i < 2 && !WaitUntil([&] { return engine.last_sealed_batch() >= i; })) {
        client_ok.store(false);
      }
    }
  });
  // A failed assertion must neither leave exec frozen in the hook nor the
  // client blocked on the queue while they are joined.
  struct ReleaseOnExit {
    Gate& release;
    std::thread& client;
    ~ReleaseOnExit() {
      release.Open();
      if (client.joinable()) client.join();
    }
  } release_on_exit{release, client};

  // Exec is frozen in batch 0, so the sequencer cannot reuse its slot:
  // the queue holds exactly kQueue transactions once the client blocks.
  ASSERT_TRUE(WaitUntil([&] { return returned.load() == 2 + kQueue; }));
  // Let both waits run past their spin budget.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(returned.load(), 2 + kQueue);
  ASSERT_EQ(engine.last_sealed_batch(), 1);

  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t client0 = ThreadCpuNanos(client.native_handle());
  const uint64_t seq0 = NamedThreadCpuNanos("bohm-seq");
  ASSERT_NE(seq0, UINT64_MAX) << "no single thread named bohm-seq";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t client_ns = ThreadCpuNanos(client.native_handle()) - client0;
  const uint64_t seq_ns = NamedThreadCpuNanos("bohm-seq") - seq0;
  const auto wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  EXPECT_LT(client_ns, wall_ns / 10)
      << "client facing a full input queue used " << client_ns
      << " ns of CPU in " << wall_ns << " ns";
  EXPECT_LT(seq_ns, wall_ns / 10)
      << "sequencer waiting for a batch slot used " << seq_ns
      << " ns of CPU in " << wall_ns << " ns";

  release.Open();
  client.join();
  EXPECT_TRUE(client_ok.load());
  engine.WaitForIdle();
  EXPECT_EQ(engine.Stats().commits, static_cast<uint64_t>(kTxns));
  for (Key k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    EXPECT_EQ(v, oracle[k]) << "key " << k;
  }
  engine.Stop();
}
#endif

class ParkedPipelineEquivalence : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParkedPipelineEquivalence, BurstsAfterIdleGapsMatchSerialOracle) {
  const uint32_t depth = GetParam();
  constexpr uint64_t kKeys = 6;
  constexpr int kBursts = 30;
  constexpr int kBurstTxns = 13;  // a few batches of 4, the last partial
  TempLogDir dir("bohm_parking_bursts");
  const BohmConfig cfg = ParkingConfig(dir.str(), depth);

  // Exec thread 1 always finishes its stripe well after thread 0, so
  // thread 0 parks between batches with its pin behind the watermark
  // that thread 1 then advances. Only a wake on that advance lets
  // thread 0 refresh the pin the slot-reuse gate waits for.
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->exec_batch_end = [](uint32_t exec_id, int64_t) {
    if (exec_id == 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::vector<uint64_t> oracle(kKeys, 0);
  uint64_t zero = 0;
  {
    BohmEngine engine(OneTable(kKeys), cfg);
    engine.set_test_hooks(hooks);
    for (Key k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(engine.Load(0, k, &zero).ok());
    }
    ASSERT_TRUE(engine.Start().ok());
    Rng rng(900 + depth);
    uint64_t submitted = 0;
    for (int burst = 0; burst < kBursts; ++burst) {
      for (int i = 0; i < kBurstTxns; ++i) {
        // Hot keys: consecutive batches read each other's writes, so exec
        // threads follow producer pointers across batches.
        const Key key = rng.Uniform(kKeys);
        ProcedurePtr proc;
        if (rng.Uniform(4) == 0) {
          const uint64_t value = rng.Uniform(1000);
          oracle[key] = value;
          proc = std::make_unique<PutProcedure>(0, key, value);
        } else {
          const uint64_t delta = 1 + rng.Uniform(9);
          oracle[key] += delta;
          proc = std::make_unique<IncrementProcedure>(0, key, delta);
        }
        ASSERT_TRUE(engine.Submit(std::move(proc)).ok());
        ++submitted;
      }
      // Longer than the spin budget: every stage parks before the next
      // burst.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!WaitUntil([&] { return engine.Stats().commits == submitted; })) {
      // The engine's threads are wedged and could never be joined.
      std::fprintf(stderr, "pipeline stalled at depth %u: %llu of %llu "
                           "committed\n", depth,
                   static_cast<unsigned long long>(engine.Stats().commits),
                   static_cast<unsigned long long>(submitted));
      std::abort();
    }
    engine.WaitForIdle();
    for (Key k = 0; k < kKeys; ++k) {
      uint64_t v = 0;
      ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
      EXPECT_EQ(v, oracle[k]) << "depth " << depth << " key " << k;
    }
    engine.Stop();
  }

  // The parked log writer wrote every batch: replay rebuilds the state.
  BohmEngine recovered(OneTable(kKeys), cfg);
  for (Key k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(recovered.Load(0, k, &zero).ok());
  }
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.recovery_stats().txns,
            static_cast<uint64_t>(kBursts) * kBurstTxns);
  for (Key k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(recovered.ReadLatest(0, k, &v).ok());
    EXPECT_EQ(v, oracle[k]) << "recovered, depth " << depth << " key " << k;
  }
  recovered.Stop();
}

INSTANTIATE_TEST_SUITE_P(Depths, ParkedPipelineEquivalence,
                         ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace bohm
