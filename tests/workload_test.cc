#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "workload/smallbank.h"
#include "workload/ycsb.h"

#include "test_util.h"

namespace bohm {
namespace {

// ---------- YCSB ----------

TEST(YcsbTest, CatalogShape) {
  YcsbConfig cfg;
  cfg.record_count = 1000;
  cfg.record_size = 1000;
  Catalog c = YcsbCatalog(cfg);
  ASSERT_NE(c.Find(kYcsbTableId), nullptr);
  EXPECT_EQ(c.Find(kYcsbTableId)->record_size, 1000u);
  EXPECT_EQ(c.Find(kYcsbTableId)->capacity, 1000u);
  EXPECT_TRUE(c.Find(kYcsbTableId)->dense_keys);
}

TEST(YcsbTest, LoadVisitsEveryKeyOnce) {
  YcsbConfig cfg;
  cfg.record_count = 500;
  cfg.record_size = 16;
  std::set<Key> seen;
  ASSERT_TRUE(YcsbLoad(cfg, [&](TableId t, Key k, const void* p) {
                EXPECT_EQ(t, kYcsbTableId);
                EXPECT_NE(p, nullptr);
                EXPECT_TRUE(seen.insert(k).second);
                return Status::OK();
              }).ok());
  EXPECT_EQ(seen.size(), 500u);
}

TEST(YcsbTest, LoadPropagatesFailure) {
  YcsbConfig cfg;
  cfg.record_count = 10;
  int calls = 0;
  Status s = YcsbLoad(cfg, [&](TableId, Key, const void*) {
    return ++calls == 3 ? Status::ResourceExhausted("full") : Status::OK();
  });
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(calls, 3);
}

TEST(YcsbTest, DistinctKeysAreDistinct) {
  YcsbConfig cfg;
  cfg.record_count = 100;
  cfg.theta = 0.9;  // heavy skew maximizes collision pressure
  YcsbGenerator gen(cfg, 42);
  for (int i = 0; i < 50; ++i) {
    auto keys = gen.DrawDistinctKeys(10);
    std::set<Key> s(keys.begin(), keys.end());
    EXPECT_EQ(s.size(), 10u);
    for (Key k : keys) EXPECT_LT(k, 100u);
  }
}

TEST(YcsbTest, RmwProcedureFootprint) {
  YcsbConfig cfg;
  cfg.record_count = 1000;
  YcsbGenerator gen(cfg, 1);
  ProcedurePtr p = gen.Make(YcsbGenerator::TxnType::k10Rmw);
  EXPECT_EQ(p->rwset().reads().size(), 10u);
  EXPECT_EQ(p->rwset().writes().size(), 10u);
  EXPECT_TRUE(p->rwset().Validate().ok());
}

TEST(YcsbTest, MixedProcedureFootprint) {
  YcsbConfig cfg;
  cfg.record_count = 1000;
  YcsbGenerator gen(cfg, 2);
  ProcedurePtr p = gen.Make(YcsbGenerator::TxnType::k2Rmw8R);
  EXPECT_EQ(p->rwset().reads().size(), 10u);  // 2 RMW reads + 8 reads
  EXPECT_EQ(p->rwset().writes().size(), 2u);
  EXPECT_TRUE(p->rwset().Validate().ok());
}

TEST(YcsbTest, ScanFootprint) {
  YcsbConfig cfg;
  cfg.record_count = 10000;
  cfg.scan_size = 1000;
  YcsbGenerator gen(cfg, 3);
  ProcedurePtr p = gen.Make(YcsbGenerator::TxnType::kReadOnlyScan);
  EXPECT_EQ(p->rwset().reads().size(), 1000u);
  EXPECT_TRUE(p->rwset().writes().empty());
}

TEST(YcsbTest, MixedStreamRespectsReadOnlyFraction) {
  YcsbConfig cfg;
  cfg.record_count = 1000;
  cfg.scan_size = 20;
  YcsbGenerator gen(cfg, 4);
  int scans = 0;
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    ProcedurePtr p = gen.MakeMixed(0.25);
    if (p->rwset().writes().empty()) ++scans;
  }
  EXPECT_GT(scans, kN / 8);
  EXPECT_LT(scans, kN / 2);
}

TEST(YcsbTest, SkewConcentratesKeys) {
  YcsbConfig cfg;
  cfg.record_count = 10000;
  cfg.theta = 0.9;
  YcsbGenerator gen(cfg, 5);
  std::map<Key, int> counts;
  for (int i = 0; i < 2000; ++i) {
    for (Key k : gen.DrawDistinctKeys(10)) ++counts[k];
  }
  // Under theta=0.9 the hottest key must be drawn far more often than the
  // uniform expectation (20000 draws / 10000 keys = 2).
  int hottest = 0;
  for (auto& [k, c] : counts) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, 100);
}

// ---------- SmallBank ----------

TEST(SmallBankTest, CatalogHasThreeTables) {
  SmallBankConfig cfg;
  cfg.customers = 100;
  Catalog c = SmallBankCatalog(cfg);
  EXPECT_NE(c.Find(kSbCustomerTable), nullptr);
  EXPECT_NE(c.Find(kSbSavingsTable), nullptr);
  EXPECT_NE(c.Find(kSbCheckingTable), nullptr);
  EXPECT_EQ(c.Find(kSbSavingsTable)->record_size, 8u);
}

TEST(SmallBankTest, LoadPopulatesAllTables) {
  SmallBankConfig cfg;
  cfg.customers = 50;
  std::map<TableId, int> counts;
  ASSERT_TRUE(SmallBankLoad(cfg, [&](TableId t, Key, const void*) {
                ++counts[t];
                return Status::OK();
              }).ok());
  EXPECT_EQ(counts[kSbCustomerTable], 50);
  EXPECT_EQ(counts[kSbSavingsTable], 50);
  EXPECT_EQ(counts[kSbCheckingTable], 50);
}

TEST(SmallBankTest, FootprintsAreSmall) {
  SmallBankConfig cfg;
  cfg.customers = 100;
  SmallBankGenerator gen(cfg, 9);
  for (int i = 0; i < 200; ++i) {
    ProcedurePtr p = gen.Make();
    EXPECT_LE(p->rwset().reads().size(), 5u);
    EXPECT_LE(p->rwset().writes().size(), 3u);
    EXPECT_TRUE(p->rwset().Validate().ok());
  }
}

TEST(SmallBankTest, BalanceIsReadOnly) {
  SmallBankConfig cfg;
  cfg.customers = 10;
  SmallBankGenerator gen(cfg, 1);
  ProcedurePtr p = gen.Make(SmallBankGenerator::TxnType::kBalance);
  EXPECT_TRUE(p->rwset().writes().empty());
  EXPECT_EQ(p->rwset().reads().size(), 3u);
}

TEST(SmallBankTest, MixIsRoughlyUniform) {
  SmallBankConfig cfg;
  cfg.customers = 100;
  SmallBankGenerator gen(cfg, 13);
  int read_only = 0;
  const int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    if (gen.Make()->rwset().writes().empty()) ++read_only;
  }
  // ~20% Balance (the paper: "a small part ... 20% of all transactions").
  EXPECT_GT(read_only, kN / 10);
  EXPECT_LT(read_only, kN * 3 / 10);
}

TEST(SmallBankTest, SpinRunsApproximatelyRequestedTime) {
  auto t0 = std::chrono::steady_clock::now();
  SmallBankSpin(200);
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_GE(us, 200);
}

TEST(SmallBankTest, AmalgamateNeedsTwoCustomers) {
  SmallBankConfig cfg;
  cfg.customers = 1;
  SmallBankGenerator gen(cfg, 3);
  // Must not loop forever or produce a two-customer txn.
  ProcedurePtr p = gen.Make(SmallBankGenerator::TxnType::kAmalgamate);
  ASSERT_NE(p, nullptr);
}

}  // namespace
}  // namespace bohm
