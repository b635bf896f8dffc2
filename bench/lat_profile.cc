// Latency profile: per-transaction latency percentiles on the contended
// 2RMW-8R workload. The paper reports throughput only; latency
// percentiles expose the same phenomena from the other side — retries
// inflate the tail for the optimistic engines, lock waits inflate it for
// 2PL, and Bohm's tail is batching delay (submit→commit-ack through the
// sequencer/CC/execution pipeline) rather than contention.
//
// Apples-to-oranges caveat: the executor engines' numbers are on-thread
// Execute() latency; Bohm's are end-to-end from Submit() to commit
// publication, which includes queueing and batch formation.
#include <cstdio>

#include "bench/bench_common.h"

using namespace bohm;
using namespace bohm::bench;

int main() {
  YcsbConfig cfg;
  cfg.record_count = BenchRecords(20'000);
  cfg.record_size = 1000;
  cfg.theta = 0.9;
  const DriverOptions opt = BenchDriverOptions();
  const int threads = BenchThreads().back();
  auto fn = [](YcsbGenerator& gen) {
    return gen.Make(YcsbGenerator::TxnType::k2Rmw8R);
  };

  JsonReport json("lat_profile");
  // The stall columns attribute pipeline wait to the stage doing the
  // waiting (sequencer: slot-reuse back-pressure; CC: sealed-batch feed
  // dry; exec: feed dry or CC watermark behind) — only Bohm has a
  // pipeline, so the executor rows read 0.
  Report report("Latency profile: YCSB 2RMW-8R, theta=0.9, " +
                    std::to_string(threads) + " threads",
                {"system", "txns/s", "mean(us)", "p50(us)", "p99(us)",
                 "p999(us)", "max(us)", "seq_stall(ms)", "cc_stall(ms)",
                 "exec_stall(ms)"});
  for (EngineKind kind : kAllEngines) {
    BenchResult r = YcsbPoint(
        MakeEngine(kind, YcsbCatalog(cfg), static_cast<uint32_t>(threads)),
        cfg, YcsbSource(cfg, fn), opt);
    const std::string label = EngineKindName(kind);
    report.AddRow({kind == EngineKind::kBohm ? label + " (e2e)" : label,
                   Report::FormatTput(r.Throughput()),
                   Report::FormatDouble(r.latency_us.Mean(), 1),
                   std::to_string(r.P50Us()), std::to_string(r.P99Us()),
                   std::to_string(r.P999Us()),
                   std::to_string(r.latency_us.max()),
                   Report::FormatDouble(
                       static_cast<double>(r.seq_stall_ns) / 1e6, 1),
                   Report::FormatDouble(
                       static_cast<double>(r.cc_stall_ns) / 1e6, 1),
                   Report::FormatDouble(
                       static_cast<double>(r.exec_stall_ns) / 1e6, 1)});
    json.AddPoint({{"threads", std::to_string(threads)}}, label, r);
  }
  report.Print();
  json.Write();
  std::printf(
      "\nExpected: optimistic engines (OCC, Hekaton, SI) show retry-driven "
      "tails under contention; 2PL's tail comes from lock waits; Bohm's "
      "end-to-end numbers carry batch-formation delay but no "
      "contention-driven tail. The stall columns attribute Bohm's pipeline "
      "wait per stage (streamed epoch-watermark handoff, no barriers).\n");
  return 0;
}
