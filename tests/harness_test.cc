#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "common/rand.h"
#include "harness/driver.h"
#include "harness/engines.h"
#include "harness/report.h"
#include "harness/point.h"
#include "test_util.h"

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

TEST(SweepTest, ScanSizeClampedToHalfTable) {
  EXPECT_EQ(ClampScanSize(10'000, 1'000'000), 10'000u);
  EXPECT_EQ(ClampScanSize(10'000, 100), 50u);
  EXPECT_EQ(ClampScanSize(10'000, 1), 1u);
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

TEST(StatsDeltaTest, WalksEveryRegisteredRow) {
  StatsSnapshot before, after;
  for (size_t i = 0; i < std::size(kStatFields); ++i) {
    before.*kStatFields[i].member = 1000 * (i + 1);
    after.*kStatFields[i].member = 1000 * (i + 1) + 7 * (i + 1);
  }
  // Histograms grow with the commit counter: one sample per commit.
  for (uint64_t c = 0; c < before.commits; ++c) {
    before.latency_us.Record(5);
    after.latency_us.Record(5);
  }
  for (uint64_t c = before.commits; c < after.commits; ++c) {
    after.latency_us.Record(50);
  }

  const StatsSnapshot d = StatsSnapshot::Delta(after, before);
  for (const StatField& f : kStatFields) {
    const uint64_t want = f.kind == StatKind::kCounter
                              ? after.*f.member - before.*f.member
                              : after.*f.member;
    EXPECT_EQ(d.*f.member, want) << f.key;
  }
  EXPECT_EQ(d.commits, 7u);
  EXPECT_EQ(d.seq_stall_ns, after.seq_stall_ns - before.seq_stall_ns);
  // The imbalance is the one gauge: the window keeps the closing reading.
  EXPECT_EQ(d.cc_imbalance_x1000, after.cc_imbalance_x1000);
  EXPECT_EQ(d.latency_us.count(), d.commits);
  EXPECT_EQ(d.latency_us.Percentile(0.5), 50u);
}

// Parses one point line of the JSON dump (flat object, no nested
// values, no commas inside strings) into its keys and values, in order.
std::vector<std::pair<std::string, std::string>> ParsePoint(
    const std::string& line) {
  static const std::regex kPair(R"re("([^"]+)": ("[^"]*"|[-+0-9.eE]+))re");
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(line.begin(), line.end(), kPair);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1].str(), (*it)[2].str());
  }
  return out;
}

TEST(ReportTest, JsonPointCarriesEveryRegisteredKey) {
  const std::string path = ::testing::TempDir() + "harness_test_report_" +
                           std::to_string(::getpid()) + ".json";
  JsonReport report{.figure = "unit"};

  BenchResult r;
  r.seconds = 2.0;
  r.commits = 100;
  r.cc_aborts = 100;
  r.reads = 30;
  r.writes = 20;
  r.retries = 4;
  r.seq_stall_ns = 2500;
  r.log_fsyncs = 9;
  r.cc_imbalance_x1000 = 1250;
  for (int i = 0; i < 100; ++i) r.latency_us.Record(10);
  EXPECT_DOUBLE_EQ(r.Throughput(), 50.0);
  EXPECT_DOUBLE_EQ(r.AbortRate(), 0.5);
  r.gc_freed = 6;
  report.points.push_back({{{"threads", "1"}, {"theta", "0.9"}}, "Bohm", r});
  ASSERT_TRUE(report.Write(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::vector<std::string> points;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"system\"") != std::string::npos) points.push_back(line);
  }
  in.close();
  std::remove(path.c_str());
  ASSERT_EQ(points.size(), 1u);

  std::map<std::string, std::string> values;
  std::vector<std::string> keys;
  for (const auto& [k, v] : ParsePoint(points[0])) {
    keys.push_back(k);
    values[k] = v;
  }
  // The keys every committed BENCH_*.json point carries, plus the
  // counters the registry adds (retries, reads, writes).
  std::vector<std::string> want = {
      "system",        "threads",       "theta",        "seconds",
      "commits",       "cc_aborts",     "logic_aborts", "tput_txns_per_sec",
      "abort_rate",    "lat_count",     "lat_mean_us",  "p50_us",
      "p99_us",        "p999_us",       "max_us",       "seq_stall_us",
      "cc_stall_us",   "exec_stall_us", "log_stall_us", "log_bytes",
      "log_records",   "fsyncs",        "cc_migrations", "cc_imbalance",
      "retries",       "reads",         "writes",       "gc_freed"};
  std::sort(keys.begin(), keys.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(keys, want);

  EXPECT_EQ(values["system"], "\"Bohm\"");
  EXPECT_EQ(values["threads"], "\"1\"");
  EXPECT_DOUBLE_EQ(std::stod(values["seconds"]), 2.0);
  EXPECT_DOUBLE_EQ(std::stod(values["tput_txns_per_sec"]), 50.0);
  EXPECT_DOUBLE_EQ(std::stod(values["abort_rate"]), 0.5);
  EXPECT_EQ(values["commits"], "100");
  EXPECT_EQ(values["lat_count"], "100");
  EXPECT_EQ(values["p50_us"], "10");
  EXPECT_EQ(values["reads"], "30");
  EXPECT_EQ(values["writes"], "20");
  EXPECT_EQ(values["retries"], "4");
  EXPECT_EQ(values["fsyncs"], "9");
  EXPECT_EQ(values["gc_freed"], "6");
  EXPECT_DOUBLE_EQ(std::stod(values["seq_stall_us"]), 2.5);
  EXPECT_DOUBLE_EQ(std::stod(values["cc_stall_us"]), 0.0);
  EXPECT_DOUBLE_EQ(std::stod(values["cc_imbalance"]), 1.25);
}

// An unwritable path is reported, not silently dropped, and leaves
// neither the target nor the temporary file behind.
TEST(ReportTest, WriteToUnwritablePathFails) {
  const std::string dir = ::testing::TempDir() + "harness_test_missing_" +
                          std::to_string(::getpid());
  const std::string path = dir + "/BENCH_unit.json";
  JsonReport report{.figure = "unit"};
  report.points.push_back({{{"threads", "1"}}, "Bohm", BenchResult{}});
  EXPECT_FALSE(report.Write(path));
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
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
