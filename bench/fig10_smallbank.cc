// Figure 10: SmallBank throughput vs. thread count, high contention
// (50 customers, top) and low contention (100,000 customers, bottom).
// Every transaction additionally spins 50us (Section 4.3).
// Paper shape: high contention — 2PL best but Bohm closer than in the
// YCSB RMW experiment (small 8-byte records + 20% read-only Balance);
// Hekaton/SI drop from aborts. Low contention — 2PL/OCC/Bohm similar,
// Hekaton/SI capped by the timestamp counter (~3x below Bohm at scale).
#include <cstdio>

#include "bench/bench_common.h"
#include "common/env.h"

using namespace bohm;
using namespace bohm::bench;

namespace {

void RunContention(uint64_t customers, const char* label, const char* tag,
                   JsonReport& json) {
  SmallBankConfig cfg;
  cfg.customers = customers;
  cfg.spin_us = BenchSpinUs();
  const DriverOptions opt = BenchDriverOptions();

  std::vector<std::string> cols = {"threads"};
  for (EngineKind kind : kAllEngines) {
    cols.push_back(std::string(EngineKindName(kind)) + " (txns/s)");
  }
  Report report(std::string("Figure 10 (") + label + "): SmallBank, " +
                    std::to_string(customers) + " customers, spin " +
                    std::to_string(cfg.spin_us) + "us",
                cols);

  for (int threads : BenchThreads()) {
    std::vector<std::string> row = {std::to_string(threads)};
    for (EngineKind kind : kAllEngines) {
      BenchResult r =
          SmallBankPoint(kind, cfg, static_cast<uint32_t>(threads), opt);
      row.push_back(Report::FormatTput(r.Throughput()));
      json.AddPoint({{"contention", tag},
                     {"customers", std::to_string(customers)},
                     {"threads", std::to_string(threads)}},
                    EngineKindName(kind), r);
    }
    report.AddRow(std::move(row));
  }
  report.Print();
}

}  // namespace

int main() {
  JsonReport json("fig10_smallbank");
  RunContention(
      static_cast<uint64_t>(EnvInt64("BOHM_BENCH_HIGH_CUSTOMERS", 50)),
      "top: high contention", "high", json);
  RunContention(
      static_cast<uint64_t>(EnvInt64("BOHM_BENCH_LOW_CUSTOMERS", 100'000)),
      "bottom: low contention", "low", json);
  json.Write();
  std::printf(
      "\nPaper shape: high contention — 2PL best, Bohm second and close; "
      "Hekaton/SI drop (aborts + counter). Low contention — 2PL/OCC/Bohm "
      "cluster; Hekaton/SI ~3x lower (global counter).\n");
  return 0;
}
