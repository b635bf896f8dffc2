// End-to-end latency accounting through the Bohm pipeline: transactions
// are stamped at Submit(), the latency is recorded at commit publication
// in the execution stage, and the driver windows the engine-side
// histogram between two quiesced snapshots. These tests pin down the
// user-visible invariants: non-zero monotone percentiles, and an exact
// histogram-count == commit-count correspondence for every window.
#include <gtest/gtest.h>

#include <memory>

#include "bohm/engine.h"
#include "common/rand.h"
#include "harness/driver.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

BohmEngine& LoadedEngine(BohmEngine& engine, uint64_t keys) {
  uint64_t zero = 0;
  for (Key k = 0; k < keys; ++k) EXPECT_TRUE(engine.Load(0, k, &zero).ok());
  EXPECT_TRUE(engine.Start().ok());
  return engine;
}

TxnSourceMaker IncrementMaker(uint64_t keys) {
  return [keys](uint32_t tid) {
    auto rng = std::make_shared<Rng>(tid);
    return [rng, keys]() -> ProcedurePtr {
      return std::make_unique<IncrementProcedure>(0, rng->Uniform(keys));
    };
  };
}

TEST(BohmLatencyTest, TimedWindowPercentilesNonZeroAndMonotone) {
  BohmConfig cfg;
  cfg.batch_size = 32;
  BohmEngine engine(OneTable(64), cfg);
  LoadedEngine(engine, 64);
  DriverOptions opt;
  opt.warmup_ms = 20;
  opt.measure_ms = 80;
  BenchResult r = RunBench(engine, IncrementMaker(64), opt);
  ASSERT_GT(r.commits, 0u);
  ASSERT_GT(r.latency_us.count(), 0u);
  // Latency is ceil'd to whole microseconds at the recording site, so a
  // committed transaction can never contribute a zero sample.
  EXPECT_GT(r.P50Us(), 0u);
  EXPECT_GT(r.P99Us(), 0u);
  EXPECT_LE(r.P50Us(), r.P99Us());
  EXPECT_LE(r.P99Us(), r.P999Us());
  EXPECT_GT(r.latency_us.max(), 0u);
  EXPECT_GT(r.latency_us.Mean(), 0.0);
  engine.Stop();
}

TEST(BohmLatencyTest, TimedWindowHistogramCountEqualsCommits) {
  // Both window edges are quiesced (clients parked, pipeline drained), so
  // the latency histogram describes exactly the window's committed
  // transactions — equality, not a tolerance band.
  BohmConfig cfg;
  cfg.batch_size = 32;
  BohmEngine engine(OneTable(128), cfg);
  LoadedEngine(engine, 128);
  DriverOptions opt;
  opt.warmup_ms = 20;
  opt.measure_ms = 80;
  BenchResult r = RunBench(engine, IncrementMaker(128), opt);
  ASSERT_GT(r.commits, 0u);
  EXPECT_EQ(r.latency_us.count(), r.commits);
  engine.Stop();
}

TEST(BohmLatencyTest, CountRunRecordsEverySubmission) {
  // Fixed-count runs drain the pipeline before the closing snapshot, so
  // all N submissions appear in both the commit count and the histogram.
  BohmConfig cfg;
  cfg.batch_size = 16;
  BohmEngine engine(OneTable(64), cfg);
  LoadedEngine(engine, 64);
  BenchResult r = RunCount(engine, IncrementMaker(64), 400);
  EXPECT_EQ(r.commits, 400u);
  EXPECT_EQ(r.latency_us.count(), 400u);
  EXPECT_GT(r.P50Us(), 0u);
  EXPECT_LE(r.P50Us(), r.P999Us());
  engine.Stop();
}

TEST(BohmLatencyTest, LatencyCoversPipelineNotJustExecution) {
  // A submit-stamped transaction spends time in the input queue, the
  // sequencer batch, and the CC stage before execution; with a small
  // batch size the whole pipeline still adds at least the execution
  // time, so the mean must be >= 1us (the recording floor) and the max
  // must be >= the p50.
  BohmConfig cfg;
  cfg.batch_size = 8;
  BohmEngine engine(OneTable(32), cfg);
  LoadedEngine(engine, 32);
  BenchResult r = RunCount(engine, IncrementMaker(32), 100);
  ASSERT_EQ(r.latency_us.count(), 100u);
  EXPECT_GE(r.latency_us.Mean(), 1.0);
  EXPECT_GE(r.latency_us.max(), 1u);
  EXPECT_LE(r.P50Us(), r.latency_us.max() * 2);
  engine.Stop();
}

TEST(BohmLatencyTest, EngineHistogramGrowsMonotonically) {
  // The engine-side folded histogram only grows; windows are deltas.
  BohmConfig cfg;
  cfg.batch_size = 16;
  BohmEngine engine(OneTable(64), cfg);
  LoadedEngine(engine, 64);
  auto maker = IncrementMaker(64);
  (void)RunCount(engine, maker, 150);
  StatsSnapshot s1 = engine.Stats();
  (void)RunCount(engine, maker, 150);
  StatsSnapshot s2 = engine.Stats();
  EXPECT_EQ(s1.latency_us.count(), 150u);
  EXPECT_EQ(s2.latency_us.count(), 300u);
  Histogram window = Histogram::Delta(s2.latency_us, s1.latency_us);
  EXPECT_EQ(window.count(), 150u);
  engine.Stop();
}

}  // namespace
}  // namespace bohm
