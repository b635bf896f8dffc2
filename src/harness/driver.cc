#include "harness/driver.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "common/spin.h"

namespace bohm {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Client threads submitting from per-client sources. Client c submits at
/// most its share of `total` transactions; Park() holds every client
/// between two submissions so the engine can be drained. Thread-safety:
/// clients coordinate with the driver only through these acquire/release
/// flags — no locks, nothing for the static analysis to track
/// (docs/CONCURRENCY.md).
class Clients {
 public:
  Clients(Engine& engine, const TxnSourceMaker& maker, uint32_t n,
          uint64_t total)
      : alive_(n) {
    threads_.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
      const uint64_t quota = total / n + (c < total % n ? 1 : 0);
      threads_.emplace_back([this, &engine, &maker, c, quota] {
        TxnSource source = maker(c);
        uint64_t done = 0;
        while (done < quota && !stop_.load(std::memory_order_acquire)) {
          if (pause_.load(std::memory_order_acquire)) {
            parked_.fetch_add(1, std::memory_order_acq_rel);
            SpinWait wait;
            while (pause_.load(std::memory_order_acquire) &&
                   !stop_.load(std::memory_order_acquire)) {
              wait.Pause();
            }
            parked_.fetch_sub(1, std::memory_order_acq_rel);
            continue;
          }
          // Bohm's Submit blocks (parking) while its input queue is full,
          // which is the closed loop's back-pressure. A rejection (a closed
          // or degraded engine, a client beyond an executor's worker slots)
          // means a broken configuration: abort rather than report a short
          // window as a measurement.
          Status st = engine.Submit(source(), c);
          if (!st.ok()) {
            std::fprintf(stderr, "driver: %s: submit rejected: %s\n",
                         engine.name(), st.ToString().c_str());
            std::abort();
          }
          ++done;
        }
        alive_.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
  }
  ~Clients() {
    stop_.store(true, std::memory_order_release);
    Join();
  }

  /// Returns once no client is inside Submit, nor will enter it before
  /// Resume().
  void Park() {
    pause_.store(true, std::memory_order_release);
    SpinWait wait;
    while (parked_.load(std::memory_order_acquire) <
           alive_.load(std::memory_order_acquire)) {
      wait.Pause();
    }
  }
  void Resume() { pause_.store(false, std::memory_order_release); }

  /// Waits for every client to finish its quota (or to be stopped).
  void Join() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<bool> pause_{false};
  std::atomic<uint32_t> parked_{0};
  std::atomic<uint32_t> alive_;
  std::vector<std::thread> threads_;
};

/// Snapshot at a quiescent point: the caller has parked or joined every
/// client, and nothing is left in flight inside the engine.
StatsSnapshot QuiescedStats(Engine& engine) {
  engine.WaitForIdle();
  return engine.Stats();
}

}  // namespace

BenchResult RunBench(Engine& engine, const TxnSourceMaker& maker,
                     const DriverOptions& opt) {
  const uint32_t n =
      opt.clients != 0 ? opt.clients : engine.default_clients();
  Clients clients(engine, maker, n, std::numeric_limits<uint64_t>::max());
  std::this_thread::sleep_for(std::chrono::milliseconds(opt.warmup_ms));
  clients.Park();
  StatsSnapshot before = QuiescedStats(engine);
  auto t0 = Clock::now();
  clients.Resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(opt.measure_ms));
  clients.Park();
  StatsSnapshot after = QuiescedStats(engine);
  auto t1 = Clock::now();
  return {StatsSnapshot::Delta(after, before), Seconds(t0, t1)};
}

BenchResult RunCount(Engine& engine, const TxnSourceMaker& maker,
                     uint64_t total) {
  StatsSnapshot before = QuiescedStats(engine);
  auto t0 = Clock::now();
  Clients clients(engine, maker, engine.default_clients(), total);
  clients.Join();
  StatsSnapshot after = QuiescedStats(engine);
  auto t1 = Clock::now();
  return {StatsSnapshot::Delta(after, before), Seconds(t0, t1)};
}

}  // namespace bohm
