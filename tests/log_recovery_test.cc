// Crash-recovery proof suite for the durable sequencer log.
//
// The correctness claim under test (docs/DURABILITY.md): after any crash,
// Recover() rebuilds exactly the state produced by serially executing the
// durable committed prefix of the log — torn or corrupt tails are
// truncated and never replayed, and mid-log damage is refused rather than
// skipped. The serial oracle is deliberately trivial: decode the intact
// log with ReadBatchLog and apply each transaction to a plain map. If the
// engine's recovered multi-version state ever diverges from that map, the
// pipeline's determinism (or the log's framing) is broken.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bohm/engine.h"
#include "log/batch_log.h"
#include "log/fault_env.h"
#include "log/log_reader.h"
#include "log/record.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

constexpr uint64_t kKeys = 16;
constexpr uint64_t kTxns = 60;

// ----------------------------------------------------------------------
// Serial oracle: a map plus a TxnOps that reads/writes it directly.
// Single table of 8-byte records (all tests here use OneTable).

class OracleOps final : public TxnOps {
 public:
  explicit OracleOps(std::map<Key, uint64_t>* db) : db_(db) {}
  const void* Read(TableId, Key key) override {
    auto it = db_->find(key);
    if (it == db_->end()) return nullptr;
    scratch_ = it->second;
    return &scratch_;
  }
  void* Write(TableId, Key key) override { return &(*db_)[key]; }
  void Abort() override { aborted_ = true; }
  bool aborted() const override { return aborted_; }

 private:
  std::map<Key, uint64_t>* db_;
  uint64_t scratch_ = 0;
  bool aborted_ = false;
};

std::map<Key, uint64_t> FreshOracle() {
  std::map<Key, uint64_t> db;
  for (Key k = 0; k < kKeys; ++k) db[k] = 0;
  return db;
}

/// Applies every batch with seqno < `limit_seqno` to the oracle.
void ApplyBatches(std::map<Key, uint64_t>* db,
                  const std::vector<ReplayedBatch>& batches,
                  uint64_t limit_seqno = UINT64_MAX) {
  for (const ReplayedBatch& b : batches) {
    if (b.seqno >= limit_seqno) break;
    for (const ProcedurePtr& txn : b.txns) {
      OracleOps ops(db);
      txn->Run(ops);
    }
  }
}

/// Asserts the engine's committed state equals the oracle on every key.
void ExpectStateEquals(const BohmEngine& engine,
                       const std::map<Key, uint64_t>& oracle,
                       const char* what) {
  for (Key k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok()) << what << " key " << k;
    EXPECT_EQ(v, oracle.at(k)) << what << " key " << k;
  }
}

// ----------------------------------------------------------------------
// Harness

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("bohm_recovery_test_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }

  static BohmConfig Config(const std::string& dir,
                           FsyncPolicy policy = FsyncPolicy::kNone,
                           LogEnv* env = nullptr, uint32_t group_size = 8) {
    BohmConfig cfg;
    cfg.cc_threads = 2;
    cfg.exec_threads = 2;
    cfg.batch_size = 8;  // kTxns txns span several batches
    cfg.durability.enabled = true;
    cfg.durability.dir = dir;
    cfg.durability.fsync_policy = policy;
    cfg.durability.env = env;
    cfg.durability.group_size = group_size;
    return cfg;
  }

  static std::unique_ptr<BohmEngine> MakeEngine(const BohmConfig& cfg) {
    auto engine = std::make_unique<BohmEngine>(OneTable(kKeys), cfg);
    uint64_t zero = 0;
    for (Key k = 0; k < kKeys; ++k) {
      EXPECT_TRUE(engine->Load(0, k, &zero).ok());
    }
    return engine;
  }

  /// The deterministic workload every test replays: a fixed mix of blind
  /// puts and read-modify-write increments across kKeys records.
  static ProcedurePtr WorkloadTxn(uint64_t i) {
    if (i % 3 == 0) {
      return std::make_unique<PutProcedure>(0, i % kKeys, 1000 + i);
    }
    return std::make_unique<IncrementProcedure>(0, (i * 7) % kKeys, i + 1);
  }

  static void SubmitWorkload(BohmEngine* engine, uint64_t from, uint64_t to) {
    for (uint64_t i = from; i < to; ++i) {
      ASSERT_TRUE(engine->Submit(WorkloadTxn(i)).ok()) << "txn " << i;
    }
  }

  std::filesystem::path root_;
};

// ----------------------------------------------------------------------
// Clean paths

TEST_F(RecoveryTest, EmptyDirRecoversToEmpty) {
  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().batches, 0u);
  EXPECT_EQ(engine->recovery_stats().last_seqno, 0u);
  // The recovered-empty engine is a fully working engine.
  SubmitWorkload(engine.get(), 0, 10);
  engine->WaitForIdle();
  engine->Stop();
}

TEST_F(RecoveryTest, CleanShutdownRecoversAll) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }

  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  EXPECT_FALSE(scan.tail_truncated);
  EXPECT_EQ(scan.txns, kTxns);
  auto oracle = FreshOracle();
  ApplyBatches(&oracle, batches);

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().txns, kTxns);
  EXPECT_FALSE(engine->recovery_stats().tail_truncated);
  ExpectStateEquals(*engine, oracle, "clean recovery");
  engine->Stop();
}

TEST_F(RecoveryTest, StartOnNonEmptyDirRejected) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, 10);
    engine->Stop();
  }
  auto engine = MakeEngine(Config(Dir("log")));
  // Start() on a non-empty log would fork the seqno history; the engine
  // insists on Recover().
  Status st = engine->Start();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  ASSERT_TRUE(engine->Recover().ok());
  engine->Stop();
}

TEST_F(RecoveryTest, RecoveredEngineContinuesTheLog) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }
  // Second life: recover, then keep going — the new batches must extend
  // the persisted seqno sequence without a gap or overlap.
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Recover().ok());
    SubmitWorkload(engine.get(), kTxns, kTxns + 20);
    engine->WaitForIdle();
    engine->Stop();
  }
  // Third life sees one continuous history of all kTxns + 20 txns.
  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  EXPECT_EQ(scan.txns, kTxns + 20);
  auto oracle = FreshOracle();
  ApplyBatches(&oracle, batches);

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().txns, kTxns + 20);
  ExpectStateEquals(*engine, oracle, "second recovery");
  engine->Stop();
}

TEST_F(RecoveryTest, ShutdownWithInflightWorkLosesNothing) {
  // Satellite 3: Stop() without WaitForIdle must drain every accepted
  // submission through the sequencer, the log, and execution — a clean
  // shutdown never drops work it accepted.
  {
    auto engine = MakeEngine(Config(Dir("log"), FsyncPolicy::kGroup));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->Stop();  // no WaitForIdle: the pipeline is still full
  }
  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  EXPECT_EQ(scan.txns, kTxns);  // every accepted txn reached the log
  auto oracle = FreshOracle();
  ApplyBatches(&oracle, batches);

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  ExpectStateEquals(*engine, oracle, "inflight shutdown");
  engine->Stop();
}

TEST_F(RecoveryTest, IntervalPolicyAcksAnIdleTailAndRecoversAll) {
  // kInterval under the durable-ack gate: once the ring runs dry, the
  // writer must still fsync the unsynced tail when its deadline passes,
  // or the last batches would never execute.
  {
    BohmConfig cfg = Config(Dir("log"), FsyncPolicy::kInterval);
    cfg.durability.interval_us = 200;
    auto engine = MakeEngine(cfg);
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine->Stats().commits < kTxns) {
      if (std::chrono::steady_clock::now() > deadline) {
        // The exec threads are wedged on the durable-ack gate and could
        // never be joined.
        std::fprintf(stderr,
                     "the unsynced tail was never made durable: %llu of "
                     "%llu committed\n",
                     static_cast<unsigned long long>(engine->Stats().commits),
                     static_cast<unsigned long long>(kTxns));
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(engine->Stats().log_fsyncs, 0u);
    engine->Stop();
  }
  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  EXPECT_EQ(scan.txns, kTxns);
  auto oracle = FreshOracle();
  ApplyBatches(&oracle, batches);

  BohmConfig cfg = Config(Dir("log"), FsyncPolicy::kInterval);
  cfg.durability.interval_us = 200;
  auto engine = MakeEngine(cfg);
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().txns, kTxns);
  ExpectStateEquals(*engine, oracle, "interval recovery");
  engine->Stop();
}

// ----------------------------------------------------------------------
// Crash matrix: every way a tail can die

struct TailDamage {
  const char* name;
  // Truncation point relative to the victim record's span (UINT64_MAX:
  // no truncation — this case flips a byte instead).
  uint64_t truncate_delta;
  uint64_t flip_delta;  // only when truncate_delta == UINT64_MAX
  bool expect_repair;   // recovery reports tail_truncated
};

TEST_F(RecoveryTest, CrashMatrixRecoversDurablePrefix) {
  // One intact run, then every damage mode is applied to a fresh copy of
  // the log and recovery must yield exactly the surviving prefix.
  {
    auto engine = MakeEngine(Config(Dir("intact")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }
  std::vector<ReplayedBatch> durable;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("intact"), LogEnv::Default(), &durable, &scan).ok());
  std::vector<RecordSpan> spans;
  ASSERT_TRUE(
      ScanRecordSpans(Dir("intact"), LogEnv::Default(), &spans).ok());
  ASSERT_GE(spans.size(), 4u) << "need several records for a useful matrix";

  const TailDamage kMatrix[] = {
      // A crash exactly at a record boundary: the shorter log is simply a
      // valid earlier state, nothing to repair.
      {"cut-at-boundary", 0, 0, false},
      // One byte of the next header made it to disk.
      {"torn-header-1b", 1, 0, true},
      // Header almost complete.
      {"torn-header-23b", kRecordHeaderSize - 1, 0, true},
      // Header complete, payload cut short.
      {"torn-payload", kRecordHeaderSize + 1, 0, true},
      // All but the last payload byte made it.
      {"almost-whole", UINT64_MAX - 1, 0, true},  // length - 1, see below
      // Bit rot in the last record's payload.
      {"flipped-payload", UINT64_MAX, kRecordHeaderSize + 2, true},
      // Bit rot in the last record's header.
      {"flipped-header", UINT64_MAX, 9, true},
  };

  int case_id = 0;
  for (const TailDamage& dmg : kMatrix) {
    SCOPED_TRACE(dmg.name);
    const std::string dir = Dir("case" + std::to_string(case_id++));
    std::filesystem::copy(Dir("intact"), dir,
                          std::filesystem::copy_options::recursive);

    // Truncation cases pick a victim in the middle of the tail region;
    // flips must target the last record (mid-log damage is a different
    // test). Paths inside the copy mirror the intact layout.
    const RecordSpan& victim = (dmg.truncate_delta == UINT64_MAX)
                                   ? spans.back()
                                   : spans[spans.size() - 2];
    const std::string victim_path =
        dir + victim.path.substr(Dir("intact").size());

    if (dmg.truncate_delta != UINT64_MAX) {
      uint64_t delta = dmg.truncate_delta;
      if (dmg.truncate_delta == UINT64_MAX - 1) delta = victim.length - 1;
      ASSERT_TRUE(LogEnv::Default()
                      ->TruncateFile(victim_path, victim.offset + delta)
                      .ok());
    } else {
      FaultLogEnv surgeon;
      ASSERT_TRUE(
          surgeon.FlipByte(victim_path, victim.offset + dmg.flip_delta, 0x20)
              .ok());
    }

    auto oracle = FreshOracle();
    ApplyBatches(&oracle, durable, /*limit_seqno=*/victim.seqno);

    auto engine = MakeEngine(Config(dir));
    Status st = engine->Recover();
    ASSERT_TRUE(st.ok()) << dmg.name << ": " << st.ToString();
    EXPECT_EQ(engine->recovery_stats().tail_truncated, dmg.expect_repair);
    if (dmg.expect_repair) {
      EXPECT_GT(engine->recovery_stats().truncated_bytes, 0u);
    }
    EXPECT_EQ(engine->recovery_stats().last_seqno, victim.seqno - 1);
    ExpectStateEquals(*engine, oracle, dmg.name);

    // The repaired log must itself recover cleanly (repair is idempotent
    // and leaves a valid log behind).
    engine->Stop();
    auto engine2 = MakeEngine(Config(dir));
    ASSERT_TRUE(engine2->Recover().ok()) << dmg.name << " second pass";
    engine2->Stop();
  }
}

TEST_F(RecoveryTest, MidLogCorruptionIsRefused) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }
  std::vector<RecordSpan> spans;
  ASSERT_TRUE(ScanRecordSpans(Dir("log"), LogEnv::Default(), &spans).ok());
  ASSERT_GE(spans.size(), 3u);

  // Damage the FIRST record: valid records beyond it prove this is not a
  // crash tail, so recovery must refuse rather than replay around a hole.
  FaultLogEnv surgeon;
  ASSERT_TRUE(surgeon
                  .FlipByte(spans[0].path,
                            spans[0].offset + kRecordHeaderSize + 1, 0x10)
                  .ok());

  auto engine = MakeEngine(Config(Dir("log")));
  Status st = engine->Recover();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

TEST_F(RecoveryTest, MissingLeadingSegmentIsRefused) {
  // A log whose earliest surviving segment does not start at seqno 1 is
  // a suffix of history, not history: replaying it would silently diverge
  // from the pre-crash state, so recovery must refuse.
  BohmConfig cfg = Config(Dir("log"));
  cfg.durability.segment_bytes = 256;  // force several segments
  {
    auto engine = MakeEngine(cfg);
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }
  std::vector<std::filesystem::path> segments;
  for (const auto& e : std::filesystem::directory_iterator(Dir("log"))) {
    uint64_t first;
    if (ParseSegmentFileName(e.path().filename().string(), &first)) {
      segments.push_back(e.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 2u) << "need rotation for this test";
  std::filesystem::remove(segments.front());

  auto engine = MakeEngine(Config(Dir("log")));
  Status st = engine->Recover();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

TEST_F(RecoveryTest, MisnamedSegmentIsRefused) {
  // A segment whose filename seqno disagrees with the running sequence
  // (here: the only segment renamed to claim it starts at 2) means the
  // directory and its contents no longer tell the same story.
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }
  const std::filesystem::path dir(Dir("log"));
  std::filesystem::rename(dir / SegmentFileName(1), dir / SegmentFileName(2));

  auto engine = MakeEngine(Config(Dir("log")));
  Status st = engine->Recover();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

// ----------------------------------------------------------------------
// Durability of the metadata the data fsyncs don't cover

TEST_F(RecoveryTest, SegmentCreationSyncsTheDirectory) {
  FaultLogEnv fault;
  {
    auto engine = MakeEngine(Config(Dir("log"), FsyncPolicy::kNone, &fault));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, 10);
    engine->WaitForIdle();
    engine->Stop();
  }
  // Open() syncs the log dir's entry in its parent; the first segment's
  // creation syncs the log directory itself — both before any record in
  // the segment could be reported durable.
  EXPECT_GE(fault.dir_syncs(), 2u);
}

TEST_F(RecoveryTest, TailRepairSyncsTheTruncation) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }
  std::vector<RecordSpan> spans;
  ASSERT_TRUE(ScanRecordSpans(Dir("log"), LogEnv::Default(), &spans).ok());
  ASSERT_GE(spans.size(), 2u);
  // Tear the last record's header, then recover through a counting env:
  // the repair must fsync the truncated file (and the directory) before
  // the engine starts appending new segments beyond it.
  ASSERT_TRUE(LogEnv::Default()
                  ->TruncateFile(spans.back().path, spans.back().offset + 1)
                  .ok());
  FaultLogEnv fault;
  auto engine = MakeEngine(Config(Dir("log"), FsyncPolicy::kNone, &fault));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_TRUE(engine->recovery_stats().tail_truncated);
  EXPECT_GE(fault.file_syncs(), 1u);
  EXPECT_GE(fault.dir_syncs(), 1u);
  engine->Stop();
}

// ----------------------------------------------------------------------
// Start() failure must not half-start the engine

TEST_F(RecoveryTest, StartRollsBackWhenLogOpenFails) {
  // The log directory's parent does not exist, so BatchLog::Open fails
  // after Start() has already claimed started_. The claim must be rolled
  // back: otherwise Submit() would accept transactions into a pipeline
  // with no threads, and callers would hang in WaitForIdle/Stop.
  auto engine = MakeEngine(Config(Dir("missing-parent") + "/nested/log"));
  Status st = engine->Start();
  ASSERT_FALSE(st.ok()) << st.ToString();
  EXPECT_TRUE(engine->Submit(WorkloadTxn(0)).IsRejected());
  engine->Stop();  // never started: must be a safe no-op, not a hang
}

// ----------------------------------------------------------------------
// In-process fault injection

TEST_F(RecoveryTest, CrashAtSyncLosesOnlyUnsyncedSuffix) {
  // A lying disk: sync #3 claims success but persists nothing from then
  // on. The run completes "normally"; recovery must surface exactly the
  // two records that genuinely hit the platter.
  FaultLogEnv fault;
  fault.CrashAtSync(3);
  {
    auto engine =
        MakeEngine(Config(Dir("log"), FsyncPolicy::kGroup, &fault, 1));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }
  EXPECT_TRUE(fault.crashed());

  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  // Group commit of 1 syncs once per record: exactly syncs 1 and 2
  // persisted.
  ASSERT_EQ(batches.size(), 2u);
  auto oracle = FreshOracle();
  ApplyBatches(&oracle, batches);

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().batches, 2u);
  ExpectStateEquals(*engine, oracle, "crash at sync");
  engine->Stop();
}

TEST_F(RecoveryTest, TornWriteCrashRecoversDurablePrefix) {
  // The process dies mid-write: some whole records plus a torn prefix of
  // one more are on disk. Recovery truncates the torn record and replays
  // the rest.
  FaultLogEnv fault;
  fault.CrashAfterBytes(700);  // lands mid-stream for this workload
  {
    auto engine =
        MakeEngine(Config(Dir("log"), FsyncPolicy::kNone, &fault));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->WaitForIdle();
    engine->Stop();
  }
  EXPECT_TRUE(fault.crashed());

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  const RecoveryStats& rs = engine->recovery_stats();
  EXPECT_LT(rs.txns, kTxns);  // the tail genuinely died

  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  auto oracle = FreshOracle();
  ApplyBatches(&oracle, batches);
  ExpectStateEquals(*engine, oracle, "torn write");
  engine->Stop();
}

TEST_F(RecoveryTest, DiskFullDegradesGracefully) {
  // Honest ENOSPC: the writer sees the error, stops logging, and the
  // engine sheds new work instead of wedging or crashing. Already-durable
  // batches stay recoverable.
  FaultLogEnv fault;
  fault.FailWritesAfterBytes(300);
  bool rejected = false;
  {
    auto engine =
        MakeEngine(Config(Dir("log"), FsyncPolicy::kGroup, &fault, 1));
    ASSERT_TRUE(engine->Start().ok());
    for (uint64_t i = 0; i < 20000 && !rejected; ++i) {
      Status st = engine->Submit(WorkloadTxn(i));
      if (st.IsRejected()) {
        rejected = true;
        break;
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_TRUE(rejected) << "writer failure never surfaced to Submit";
    EXPECT_TRUE(engine->log_degraded());
    engine->Stop();  // must not hang on the broken durable-ack gate
  }

  // Whatever made it to disk before the error is still a valid log.
  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  engine->Stop();
}

// ----------------------------------------------------------------------
// Loggability admission

TEST_F(RecoveryTest, NonLoggableWriterRejectedUnderDurability) {
  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Start().ok());
  // A writer the log cannot reproduce would make replay diverge.
  Status st = engine->Submit(testutil::MakeMulWrite(0, 1, 2, 3));
  EXPECT_TRUE(st.IsRejected()) << st.ToString();

  // Read-only non-loggable procedures are harmless on replay (they
  // change nothing) and stay admitted.
  uint64_t out = 0;
  bool found = false;
  GetProcedure get(0, 1, &out, &found);
  ASSERT_TRUE(engine->SubmitBorrowed(&get).ok());
  engine->WaitForIdle();
  EXPECT_TRUE(found);
  engine->Stop();
}

TEST_F(RecoveryTest, NonLoggableWriterAllowedWithoutDurability) {
  BohmConfig cfg;  // durability off: loggability is not a constraint
  auto engine = std::make_unique<BohmEngine>(OneTable(kKeys), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(engine->Load(0, k, &zero).ok());
  ASSERT_TRUE(engine->Start().ok());
  ASSERT_TRUE(engine->Submit(testutil::MakeMulWrite(0, 1, 2, 3)).ok());
  engine->WaitForIdle();
  engine->Stop();
}

}  // namespace
}  // namespace bohm
