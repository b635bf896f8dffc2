// The workload driver shared by every benchmark binary and the
// integration tests. It measures all five engines the same way (the
// paper's Section 4 methodology), through the common `Engine` interface
// (src/txn/engine_iface.h): client threads submit transactions in a
// closed loop — each executor client runs its transaction inline in its
// own worker slot, Bohm's clients feed the sequencer while the engine's
// own threads do the work.
//
// Every window edge is quiesced: the clients are parked, WaitForIdle()
// drains whatever is in flight, and only then are the engine's counters
// snapshotted. A window is the difference of two such snapshots, so its
// commit count, latency histogram and wall clock cover exactly the same
// transactions. If the engine rejects a client's Submit, both runners
// abort the process naming the engine: a short run must not pass as a
// measurement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/histogram.h"
#include "common/stats.h"
#include "txn/engine_iface.h"

namespace bohm {

/// A per-client transaction source: the driver calls the maker once per
/// client thread; the returned closure owns that client's generator state.
using TxnSource = std::function<ProcedurePtr()>;
using TxnSourceMaker = std::function<TxnSource(uint32_t client)>;

struct DriverOptions {
  uint32_t warmup_ms = 100;
  uint32_t measure_ms = 300;
  /// Client threads; 0 means the engine's default_clients(). An executor
  /// engine accepts at most one client per worker slot: it rejects the
  /// extra clients' submissions, which aborts the run.
  uint32_t clients = 0;
};

/// One measurement window: the engine's StatsSnapshot::Delta between the
/// two quiesced window edges, plus the wall-clock seconds between them.
/// Every windowed statistic (and its JSON key) is a kStatFields row in
/// src/common/stats.h, not a field here. latency_us is the engine-side
/// commit latency (RecordCommit): on-thread Execute() time for executor
/// engines, end-to-end submit→commit-ack time for Bohm; its count equals
/// `commits` exactly.
struct BenchResult : StatsSnapshot {
  double seconds = 0;

  double Throughput() const {
    return seconds > 0 ? static_cast<double>(commits) / seconds : 0.0;
  }
  uint64_t P50Us() const { return latency_us.Percentile(0.50); }
  uint64_t P99Us() const { return latency_us.Percentile(0.99); }
  uint64_t P999Us() const { return latency_us.Percentile(0.999); }
};

/// Timed closed-loop run on a started engine: opt.clients threads submit
/// transactions from maker(client) for a warmup, then for the measurement
/// window. Both window edges are quiesced; the throughput window includes
/// the closing drain and the opening re-fill, which is noise of
/// microseconds against the >=100ms windows the benches use.
BenchResult RunBench(Engine& engine, const TxnSourceMaker& maker,
                     const DriverOptions& opt);

/// Fixed-count run on a started engine: engine.default_clients() threads
/// submit exactly `total` transactions between them, to completion, and
/// the result covers exactly those transactions.
BenchResult RunCount(Engine& engine, const TxnSourceMaker& maker,
                     uint64_t total);

}  // namespace bohm
