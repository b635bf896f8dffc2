// Engine-comparison example: runs the same contended YCSB 2RMW-8R
// workload (the paper's Section 4.2.2 scenario) on all five systems —
// Bohm, Hekaton, SI, Silo-OCC and 2PL — through the shared harness, and
// prints a miniature version of the paper's Figure 6 along with abort
// counts, which explain *why* the optimistic multi-version baselines fall
// behind under contention.
//
//   ./build/examples/engine_comparison [threads]
#include <cstdio>
#include <cstdlib>

#include "harness/point.h"

using namespace bohm;

int main(int argc, char** argv) {
  const uint32_t threads =
      argc > 1 ? static_cast<uint32_t>(std::strtoul(argv[1], nullptr, 10))
               : 2;

  PointSpec spec;
  spec.threads = threads;
  spec.workload = Workload::kYcsb2Rmw8R;
  spec.records = 20'000;
  spec.record_size = 1000;
  spec.theta = 0.9;  // high contention

  DriverOptions opt;
  opt.warmup_ms = 100;
  opt.measure_ms = 400;

  std::printf("YCSB 2RMW-8R, theta=0.9, %u threads, %llu x 1000B records\n\n",
              threads, static_cast<unsigned long long>(spec.records));
  std::printf("%-8s  %14s  %12s  %10s\n", "system", "txns/s", "cc-aborts",
              "abort-rate");
  for (EngineKind kind : kAllEngines) {
    spec.engine = kind;
    BenchResult r = RunPoint(spec, opt);
    std::printf("%-8s  %14.0f  %12llu  %9.1f%%\n", EngineKindName(kind),
                r.Throughput(),
                static_cast<unsigned long long>(r.cc_aborts),
                100.0 * r.AbortRate());
  }
  std::printf(
      "\nBohm's row shows zero concurrency-control aborts: the CC phase "
      "fixed the serialization order before execution, so contended "
      "writes never waste work (the paper's key contrast with Hekaton "
      "and SI).\n");
  return 0;
}
