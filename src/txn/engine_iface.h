// The common engine interface. Every engine the paper compares (Bohm,
// Silo-OCC, 2PL, Hekaton and SI) implements `Engine`, so one driver
// (src/harness/driver.h) measures all five the same way.
//
// Two implementation shapes sit behind it:
//  * Bohm is pipelined: Submit() hands the transaction to the sequencer
//    and returns; dedicated sequencer / CC / execution threads commit it
//    later, and WaitForIdle() drains them.
//  * The executor engines (2PL, OCC, Hekaton, SI; `ExecutorEngine`) run a
//    transaction to completion on the thread that submits it, retrying
//    internally on concurrency-control aborts — the paper's baselines are
//    all "configured to retry transactions in the event of an abort
//    induced by concurrency control" (Section 4).
//
// Every engine records each commit's latency into its own per-thread
// ThreadStats::latency_us (RecordCommit, src/common/stats.h) before
// counting it, so at a quiescent point Stats().latency_us.count() equals
// Stats().commits.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "common/status.h"
#include "txn/key.h"
#include "txn/procedure.h"

namespace bohm {

class Engine {
 public:
  virtual ~Engine() = default;

  /// Inserts an initial record (nullptr payload zero-fills). Load is
  /// single-threaded and must complete before Start().
  virtual Status Load(TableId table, Key key, const void* payload) = 0;

  /// Makes the engine ready for Submit (spawns Bohm's pipeline threads).
  virtual Status Start() = 0;

  /// Hands one transaction to the engine on behalf of client `client`.
  /// OK means accepted: the transaction has run, or will run, to
  /// completion, and its commit or logic abort shows in Stats(). An error
  /// means it was rejected and will never run.
  virtual Status Submit(ProcedurePtr proc, uint32_t client) = 0;

  /// Blocks until every transaction accepted so far has completed.
  virtual void WaitForIdle() = 0;

  /// Aggregated counters, latency histogram and stall attribution.
  virtual StatsSnapshot Stats() const = 0;

  /// Engine name for reports ("Bohm", "2PL", "OCC", "Hekaton", "SI").
  virtual const char* name() const = 0;

  /// Number of concurrent clients the driver runs when none is asked for.
  virtual uint32_t default_clients() const = 0;
};

class ExecutorEngine : public Engine {
 public:
  /// Runs one transaction to completion on the calling thread.
  /// `thread_id` identifies the caller's pre-registered worker slot
  /// (0 <= thread_id < worker_threads()). Returns OK on commit, Aborted
  /// when the transaction's own logic aborted. Concurrency-control aborts
  /// are retried internally and surface only in Stats().
  virtual Status Execute(StoredProcedure& proc, uint32_t thread_id) = 0;

  /// Number of worker slots the engine was configured with.
  virtual uint32_t worker_threads() const = 0;

  /// Nothing to spawn: transactions run on the submitting thread.
  Status Start() final { return Status::OK(); }

  /// Executes inline in client `client`'s worker slot. A logic abort is
  /// a completed transaction, not a rejection.
  Status Submit(ProcedurePtr proc, uint32_t client) final {
    Status s = Execute(*proc, client);
    return s.IsAborted() ? Status::OK() : s;
  }

  /// A client that is not inside Submit has nothing in flight.
  void WaitForIdle() final {}

  /// One client per worker slot.
  uint32_t default_clients() const final { return worker_threads(); }
};

}  // namespace bohm
