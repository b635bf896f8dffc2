#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/driver.h"
#include "harness/engines.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "test_util.h"
#include "workload/micro.h"

namespace bohm {
namespace {

using testutil::OneTable;

TxnSourceMaker IncrementMaker() {
  return [](uint32_t client) {
    auto rng = std::make_shared<Rng>(client);
    return [rng]() -> ProcedurePtr {
      return std::make_unique<IncrementProcedure>(0, rng->Uniform(64));
    };
  };
}

// Every case runs on all five engines through the one driver: a started
// engine with two worker threads over a 64-key table.
class DriverTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    engine_ = MakeEngine(GetParam(), OneTable(64), 2);
    uint64_t zero = 0;
    for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine_->Load(0, k, &zero).ok());
    ASSERT_TRUE(engine_->Start().ok());
  }

  std::unique_ptr<Engine> engine_;
};

TEST_P(DriverTest, CountRunsExactly) {
  BenchResult r = RunCount(*engine_, IncrementMaker(), 201);
  EXPECT_EQ(r.commits, 201u);
  EXPECT_EQ(r.latency_us.count(), 201u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.Throughput(), 0.0);
}

TEST_P(DriverTest, TimedWindowCommitsSomething) {
  DriverOptions opt;
  opt.warmup_ms = 10;
  opt.measure_ms = 50;
  BenchResult r = RunBench(*engine_, IncrementMaker(), opt);
  EXPECT_GT(r.commits, 0u);
  // The window spans the measurement sleep plus the closing drain: at
  // most one transaction per client for an executor engine (the old
  // 0.1 s bound), up to a full input queue for Bohm (~30 ms under TSan,
  // given 10x headroom for a loaded host).
  const double drain_s = GetParam() == EngineKind::kBohm ? 0.3 : 0.05;
  EXPECT_GE(r.seconds, 0.05);
  EXPECT_LE(r.seconds, 0.05 + drain_s);
}

TEST_P(DriverTest, WarmupExcludedFromWindow) {
  // Both window edges are quiesced (clients parked, engine drained), so
  // the histogram delta covers exactly the window's commits — no warmup
  // leakage in either direction.
  DriverOptions opt;
  opt.warmup_ms = 30;
  opt.measure_ms = 60;
  BenchResult r = RunBench(*engine_, IncrementMaker(), opt);
  ASSERT_GT(r.commits, 0u);
  EXPECT_EQ(r.latency_us.count(), r.commits);
  // Warmup ran for a comparable duration, so the engine's lifetime commit
  // total strictly exceeds the window's.
  EXPECT_GT(engine_->Stats().commits, r.commits);
}

TEST_P(DriverTest, RepeatedCountWindowsExact) {
  // Back-to-back fixed-count runs on one engine: each window's commit and
  // histogram counts are exact despite the monotonically growing
  // engine-side counters.
  for (int round = 0; round < 3; ++round) {
    BenchResult r = RunCount(*engine_, IncrementMaker(), 200);
    EXPECT_EQ(r.commits, 200u) << "round " << round;
    EXPECT_EQ(r.latency_us.count(), 200u) << "round " << round;
  }
  EXPECT_EQ(engine_->Stats().commits, 600u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DriverTest,
                         ::testing::ValuesIn(kAllEngines),
                         [](const auto& param_info) {
                           return std::string(EngineKindName(param_info.param));
                         });

// A run the driver cannot measure aborts instead of reporting a short or
// lower-concurrency window.
TEST(DriverDeathTest, ClientsBeyondWorkerSlotsAbort) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto engine = MakeEngine(EngineKind::kOCC, OneTable(64), 2);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine->Load(0, k, &zero).ok());
  DriverOptions opt;
  opt.clients = 3;
  EXPECT_DEATH(RunBench(*engine, IncrementMaker(), opt),
               "OCC: submit rejected: .*bad thread id");
}

TEST(DriverDeathTest, RejectedSubmitAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // Never started, so Bohm rejects every Submit.
  auto engine = MakeEngine(EngineKind::kBohm, OneTable(64), 2);
  EXPECT_DEATH(RunCount(*engine, IncrementMaker(), 10),
               "Bohm: submit rejected");
}

TEST(SweepTest, BohmSplitCoversCases) {
  BohmConfig c1 = BohmSplit(1);
  EXPECT_EQ(c1.cc_threads, 1u);
  EXPECT_EQ(c1.exec_threads, 1u);
  BohmConfig c4 = BohmSplit(4);
  EXPECT_EQ(c4.cc_threads + c4.exec_threads, 4u);
  BohmConfig c5 = BohmSplit(5);
  EXPECT_EQ(c5.cc_threads + c5.exec_threads, 5u);
  BohmConfig c0 = BohmSplit(0);
  EXPECT_GE(c0.cc_threads, 1u);
  EXPECT_GE(c0.exec_threads, 1u);
}

TEST(SweepTest, EnvOverridesThreads) {
  ::setenv("BOHM_BENCH_THREADS", "3,9", 1);
  auto v = BenchThreads();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 9);
  ::unsetenv("BOHM_BENCH_THREADS");
}

TEST(SweepTest, ScanSizeClampedToHalfTable) {
  ::unsetenv("BOHM_BENCH_SCAN_SIZE");
  EXPECT_EQ(BenchScanSize(1'000'000), 10'000u);
  EXPECT_EQ(BenchScanSize(100), 50u);
}

TEST(ReportTest, FormatTput) {
  EXPECT_EQ(Report::FormatTput(2'500'000), "2.50M");
  EXPECT_EQ(Report::FormatTput(12'300), "12.3K");
  EXPECT_EQ(Report::FormatTput(42), "42");
}

TEST(ReportTest, PrintDoesNotCrash) {
  Report r("test table", {"threads", "tput"});
  r.AddRow({"1", "10K"});
  r.AddRow({"2", "20K"});
  r.Print();
}

TEST(ReportTest, BenchResultMath) {
  BenchResult r;
  r.seconds = 2.0;
  r.commits = 100;
  r.cc_aborts = 100;
  EXPECT_DOUBLE_EQ(r.Throughput(), 50.0);
  EXPECT_DOUBLE_EQ(r.AbortRate(), 0.5);
}

TEST(EngineFactoryTest, NamesMatch) {
  Catalog c = OneTable(4);
  for (EngineKind kind : kAllEngines) {
    EXPECT_STREQ(MakeEngine(kind, c, 1)->name(), EngineKindName(kind));
  }
}

TEST(EngineFactoryDeathTest, BohmIsNotAnExecutorEngine) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(MakeExecutorEngine(EngineKind::kBohm, OneTable(4), 1),
               "Bohm is not an executor engine");
}

}  // namespace
}  // namespace bohm
