// BohmEngine: the paper's concurrency-control protocol, end to end.
//
// Pipeline (Section 3.1):
//
//   clients --Submit()--> [input queue]
//      --> sequencer thread: totally orders transactions; timestamp =
//          position in the log; accumulates batches (Sections 3.2.1, 3.2.4)
//      --> m concurrency-control threads: each walks every batch and
//          processes exactly the physical partitions the batch's
//          partition map assigns to it (fixed unless adaptive
//          repartitioning migrates them; bohm/repartition.h) — inserts
//          uninitialized version placeholders for writes and annotates
//          reads with version references (Sections 3.2.2, 3.2.3); each
//          thread advances its own epoch watermark per batch instead of
//          parking at a per-batch barrier (Section 3.2.4), so CC threads
//          stream into batch b+1 while slower ones are still in b
//      --> n execution threads: start batch b once min(cc_watermark) >= b,
//          stripe transactions among themselves, evaluate transaction
//          logic filling the placeholders, recursively evaluating
//          producers of unready read dependencies (Section 3.3.1); publish
//          per-thread completion watermarks from which the GC / slot-reuse
//          low-watermark is folded (Section 3.3.2).
//
// Handoff between stages is wait-free on the hot path: every stage
// publishes its progress as a batch-id watermark (the sequencer's
// last_sealed_batch, the CC and execution watermark sets), and stages wait
// for each other only on those watermarks. Every such idle wait spins
// briefly and then parks on one engine-wide IdleEvent, which every
// publication notifies (docs/CONCURRENCY.md rule R9), so an idle engine
// costs no CPU.
//
// Reads never block writes; writes may block reads (only on placeholder
// data not yet produced). No global timestamp counter, no lock manager, no
// per-read shared-memory writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/queue.h"
#include "common/spin.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/watermark.h"
#include "bohm/batch.h"
#include "bohm/repartition.h"
#include "bohm/table.h"
#include "bohm/txn_state.h"
#include "bohm/version.h"
#include "log/batch_log.h"
#include "log/log_writer.h"
#include "storage/schema.h"
#include "txn/engine_iface.h"

namespace bohm {

/// Durable-log configuration (docs/DURABILITY.md). Bohm's recovery story
/// is the input log itself: because execution is deterministic in the
/// sequenced order, persisting each sealed batch (seqno + encoded
/// transactions) is a complete redo log — no ARIES, no per-write logging.
struct DurabilityConfig {
  bool enabled = false;
  /// Directory for segment files (created if missing).
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kGroup;
  uint32_t group_size = 8;  // kGroup: records per fsync
  uint64_t segment_bytes = 64ull << 20;
  /// When true (the default), execution of a batch waits until the batch
  /// is durable per the fsync policy, so a commit acknowledgement implies
  /// the transaction survives a crash ("no acked commit is ever lost").
  /// When false, logging is asynchronous book-keeping only.
  bool durable_ack = true;
  /// File-system indirection; nullptr means the real one. Tests inject
  /// FaultLogEnv here.
  LogEnv* env = nullptr;
};

/// What Recover() found and repaired (test/monitoring observable).
struct RecoveryStats {
  uint64_t batches = 0;        ///< durable batches replayed
  uint64_t txns = 0;           ///< transactions replayed
  uint64_t segments = 0;       ///< segment files scanned
  bool tail_truncated = false; ///< a torn/corrupt tail was dropped
  uint64_t truncated_bytes = 0;
  std::string tail_detail;
  uint64_t last_seqno = 0;     ///< highest durable seqno (0: empty log)
};

struct BohmConfig {
  /// m: concurrency-control threads (each owns the physical hash
  /// partitions the partition map assigns to it).
  uint32_t cc_threads = 2;
  /// n: transaction-execution threads.
  uint32_t exec_threads = 2;
  /// Transactions per batch. Coordination cost is amortized over this many
  /// transactions (Section 3.2.4).
  uint32_t batch_size = 256;
  /// Batches in flight across the three stages (minimum 1; depth 1
  /// degenerates the stream to one batch at a time, which the streaming
  /// equivalence tests use as the serial reference point).
  uint32_t pipeline_depth = 4;
  /// Enable Condition-3 garbage collection of superseded versions
  /// (Section 3.3.2).
  bool gc_enabled = true;
  /// Enable the read-set annotation optimization (Section 3.2.3). When
  /// off, execution threads locate read versions by chain traversal.
  bool read_annotation = true;
  /// Pin engine threads to CPUs (auto-disabled when threads > CPUs).
  bool pin_threads = true;
  /// Capacity of the client->sequencer queue (rounded up to a power of 2).
  size_t input_queue_capacity = 8192;
  /// Bound on recursive read-dependency evaluation; deeper chains back out
  /// and are retried by the responsible thread (keeps stacks bounded under
  /// adversarial hot-key RMW chains).
  uint32_t max_dependency_depth = 64;
  /// Pre-processing (Section 3.2.2's answer to the Amdahl's-law concern):
  /// the sequencer annotates each transaction with the set of CC threads
  /// it has work for (computed against the batch's partition map), so CC
  /// threads skip foreign transactions without scanning their read/write
  /// sets. The mask is 64 bits wide, so this requires cc_threads <= 64;
  /// Start() rejects (InvalidArgument) configs that violate it instead of
  /// silently computing an undefined shift. Disable it explicitly to run
  /// with more than 64 CC threads.
  bool interest_preprocessing = true;
  /// CC partition routing (src/bohm/repartition.h): the physical
  /// partition count and whether hot partitions migrate between threads
  /// at batch boundaries. Migration is off by default, which keeps the
  /// initial partition -> thread map (the paper's static assignment).
  AdaptiveCcConfig adaptive;
  /// Durable sequencer log + crash recovery (docs/DURABILITY.md).
  DurabilityConfig durability;
};

/// Test-only observation/freeze points inside the pipeline threads. Every
/// callback is invoked from the engine thread named by its first argument;
/// a callback that blocks freezes exactly that thread (the streaming tests
/// use this to pin a CC thread mid-batch and prove execution still honours
/// the watermark). Install before Start(); unset hooks cost one pointer
/// check per batch or per unready read dependency, never per transaction.
struct BohmTestHooks {
  /// CC thread `cc_id` is about to process its slice of `batch_id`.
  std::function<void(uint32_t cc_id, int64_t batch_id)> cc_batch_start;
  /// CC thread `cc_id` finished its slice of `batch_id` (its watermark is
  /// advanced immediately after this returns).
  std::function<void(uint32_t cc_id, int64_t batch_id)> cc_batch_end;
  /// Exec thread `exec_id` is about to stripe `batch_id` (the CC
  /// watermark fold has already admitted the batch).
  std::function<void(uint32_t exec_id, int64_t batch_id)> exec_batch_start;
  /// Exec thread `exec_id` completed its stripe of `batch_id`.
  std::function<void(uint32_t exec_id, int64_t batch_id)> exec_batch_end;
  /// Exec thread `exec_id` found a read dependency unready and is about
  /// to try to claim its producer, a transaction of `producer_batch`.
  std::function<void(uint32_t exec_id, int64_t producer_batch)>
      exec_dependency;
};

class BohmEngine final : public Engine {
 public:
  BohmEngine(const Catalog& catalog, BohmConfig cfg);
  ~BohmEngine() override;
  BOHM_DISALLOW_COPY_AND_ASSIGN(BohmEngine);

  /// Inserts an initial record (timestamp-0 version). Must be called
  /// before Start(); single-threaded.
  Status Load(TableId table, Key key, const void* payload) override;

  /// Spawns the sequencer, CC, and execution threads. With durability
  /// enabled, also opens the log and starts the log-writer thread; fails
  /// with FailedPrecondition if the log directory already holds segments
  /// and Recover() was not called first (silently continuing would fork
  /// the seqno history).
  Status Start() override;

  /// Crash recovery: scans the durable log (repairing a torn or
  /// checksum-failing tail by truncation), starts the engine, and replays
  /// every durable batch through the full pipeline in original sequenced
  /// order — determinism makes the result byte-equivalent to the
  /// pre-crash state. Call instead of Start(), after Load()ing the same
  /// initial records as the original run; the engine is running (and
  /// logging new batches) when this returns. Stats in recovery_stats().
  Status Recover();

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// True once the durable-log writer has hit an I/O error: logging has
  /// stopped, already-acknowledged commits remain durable, and Submit
  /// rejects new work (the engine is degraded, not wrong).
  bool log_degraded() const {
    return log_writer_ != nullptr && log_writer_->failed();
  }

  /// Drains all submitted transactions and joins every engine thread.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Hands a transaction to the sequencer. Blocks when the input queue is
  /// full: spins briefly, then parks until the sequencer pops. The engine
  /// assumes ownership and destroys the procedure some time after it
  /// completes (when its batch slot is recycled) — do not retain pointers
  /// into it.
  ///
  /// Returns Rejected (never crashes the engine) when the transaction
  /// cannot be accepted: engine not running or shutting down, durable log
  /// degraded, a non-loggable procedure under durability, or a malformed
  /// footprint (unknown table, duplicate write-set keys). On rejection
  /// ownership stays rejected-side semantics: the procedure is destroyed
  /// (it was moved in) and nothing was enqueued.
  Status Submit(ProcedurePtr proc);

  /// Engine interface: every client feeds the same input queue, so
  /// `client` is ignored.
  Status Submit(ProcedurePtr proc, uint32_t /*client*/) override {
    return Submit(std::move(proc));
  }

  /// Non-owning variant for procedures whose results the caller wants to
  /// read back (e.g. a read-only scan's aggregate): the caller keeps
  /// ownership and must keep the object alive until the transaction has
  /// completed (WaitForIdle() suffices).
  Status SubmitBorrowed(StoredProcedure* proc);

  /// Convenience for tests/examples: Submit + WaitForIdle.
  Status RunSync(ProcedurePtr proc);

  /// Blocks until every transaction submitted so far has been executed.
  void WaitForIdle() override;

  /// Aggregated execution counters plus per-stage stall attribution.
  StatsSnapshot Stats() const override;

  const char* name() const override { return "Bohm"; }

  /// Two feeders keep the input queue full; the pipeline stages, not
  /// submission, are the bottleneck.
  uint32_t default_clients() const override { return 2; }

  /// The execution low-watermark: every batch with id <= Watermark() has
  /// been fully executed by every execution thread (drives GC and batch
  /// slot reuse).
  int64_t Watermark() const;

  /// The CC low-watermark: every CC thread has finished its partition
  /// slice of every batch with id <= CcWatermark(). Execution may only be
  /// inside batches the CC watermark has passed, so
  /// Watermark() <= CcWatermark() always holds.
  int64_t CcWatermark() const;

  /// Test hooks.
  const BohmDatabase& db() const { return db_; }
  /// Installs pipeline observation hooks. Must be called before Start().
  void set_test_hooks(std::shared_ptr<const BohmTestHooks> hooks) {
    hooks_ = std::move(hooks);
  }
  /// Highest batch id the sequencer has sealed so far (-1 before the
  /// first seal).
  int64_t last_sealed_batch() const {
    return last_sealed_batch_.load(std::memory_order_acquire);
  }
  uint64_t submitted() const {
    return submitted_.load(std::memory_order_acquire);
  }
  uint64_t gc_freed_versions() const;
  const BohmConfig& config() const { return cfg_; }

  /// Physical partitions per table (independent of `adaptive.enabled`).
  uint32_t partition_count() const { return db_.partitions(); }
  /// Epoch of the currently promoted partition map (0 = initial).
  uint64_t partition_map_epoch() const { return repart_->epoch(); }

  /// Reads the committed value of a record as of "now" (after
  /// WaitForIdle). Test/example helper; not part of the transactional
  /// path. Returns NotFound when absent.
  Status ReadLatest(TableId table, Key key, void* out) const;

 private:
  friend class BohmOps;

  struct alignas(kCacheLineSize) CcState {
    VersionAllocator alloc;
    std::deque<std::pair<Version*, int64_t>> retired;  // (version, batch)
    RelaxedCounter freed;
    /// Per-partition touch counters. Single-writer: at any moment each
    /// partition has exactly one owner, and ownership handoff rides the
    /// watermark edges, so a slot never has two concurrent writers.
    /// The sequencer folds them between batches.
    std::unique_ptr<RelaxedCounter[]> touch;
  };
  /// Single-writer wall-clock stall accumulator, one per pipeline thread
  /// (padded so stall accounting never shares a line across threads).
  struct alignas(kCacheLineSize) StallSlot {
    RelaxedCounter ns;
  };

  // --- sequencer stage (sequencer.cc) ---
  void SequencerLoop();
  void SealBatch(Batch* batch, int64_t id);
  /// Folds the per-thread per-partition touch counters into
  /// touch_totals_ and feeds them to the repartition controller
  /// (sequencer thread only).
  void FoldTouchCounters();
  /// Encodes + hands the sealed batch to the log writer (sequencer thread
  /// only; no-op while replaying).
  void LogSealedBatch(const Batch& batch, int64_t id);

  /// Shared admission checks for Submit/SubmitBorrowed.
  Status CheckSubmit(const StoredProcedure* proc) const;

  // --- concurrency-control stage (cc_worker.cc) ---
  void CcLoop(uint32_t cc_id);
  void CcProcessTxn(uint32_t cc_id, BohmTxn* txn, int64_t batch_id);

  // --- execution stage (exec_worker.cc) ---
  void ExecLoop(uint32_t exec_id);
  /// Raises this thread's exec_pin_ slot to the current Watermark()
  /// (exec thread only, never while it holds a producer pointer).
  void RefreshExecPin(uint32_t exec_id);
  /// Idle wait of exec thread `exec_id` until `ready()` holds, keeping
  /// its pin fresh while parked (rule R9); `busy` as in IdleEvent::Await.
  template <typename Pred, typename Busy>
  void ExecAwait(uint32_t exec_id, Pred ready, Busy busy);
  bool TryExecute(uint32_t exec_id, BohmTxn* txn, uint32_t depth);
  bool EnsureReady(uint32_t exec_id, Version* v, uint32_t depth);
  Version* ResolveRead(ReadRef& ref, uint64_t ts) const;
  bool FillAbortedWrites(uint32_t exec_id, BohmTxn* txn, uint32_t depth);

  // --- garbage collection (gc.cc) ---
  void DrainRetired(uint32_t cc_id);
  void RetireVersion(uint32_t cc_id, Version* v, int64_t batch_id);

  uint64_t CompletedCount() const;
  /// True while some sealed batch is not yet executed by every exec
  /// thread: a pipeline wait is then back-pressure and spins rather than
  /// parks (rule R9). Reads only words written once per batch; a fold of
  /// the per-transaction commit counters would bounce the exec threads'
  /// cache lines on every poll.
  bool PipelineBusy() const { return last_sealed_batch() > Watermark(); }

  struct InputItem {
    StoredProcedure* proc = nullptr;
    bool owned = false;
    /// MonotonicNanos() at Submit(); becomes BohmTxn::submit_tick.
    uint64_t submit_tick = 0;
  };
  /// Counts `item` as submitted and pushes it, parking while the input
  /// queue is full; then wakes the sequencer.
  void Enqueue(InputItem item);

  Catalog catalog_;
  BohmConfig cfg_;
  BohmDatabase db_;
  /// Partition -> owner-thread map machinery. Mutated only by the
  /// sequencer; monitors are release-published.
  std::unique_ptr<RepartitionController> repart_;
  /// Sequencer-private scratch for the per-partition touch-counter fold.
  std::vector<uint64_t> touch_totals_;
  std::vector<uint32_t> record_sizes_;  // by table id
  BatchRing ring_;
  MpmcQueue<InputItem> input_;
  std::vector<std::unique_ptr<CcState>> cc_state_;
  /// Per-thread CC progress; execution admits batch b when Min() >= b.
  WatermarkSet cc_watermark_;
  /// Per-thread execution progress; Min() is Watermark() (GC).
  WatermarkSet exec_watermark_;
  /// Per-exec-thread reclamation pin (rule R8; see RefreshExecPin): no
  /// batch <= a thread's pin is reachable from it. Slot reuse gates on
  /// Min().
  WatermarkSet exec_pin_;
  /// The one event every idle wait of the pipeline (sequencer, CC, exec,
  /// log writer, WaitForIdle, a second Stop) parks on, and every
  /// publication those waits watch notifies (rule R9). One shared word,
  /// not one per stage: a submit after an idle gap wakes sequencer, CC
  /// and exec together, so their wake latencies overlap instead of adding
  /// up along the pipeline.
  IdleEvent idle_;
  StatsRegistry stats_;  // one slice per execution thread
  StallSlot seq_stall_;
  std::vector<std::unique_ptr<StallSlot>> cc_stall_;
  std::vector<std::unique_ptr<StallSlot>> exec_stall_;
  std::shared_ptr<const BohmTestHooks> hooks_;

  /// Durable-log state (null when durability is off). Declaration order
  /// matters: the writer references the log, so it is declared after it
  /// (destroyed first).
  std::unique_ptr<BatchLog> log_;
  std::unique_ptr<LogWriter> log_writer_;
  StallSlot seq_log_stall_;  ///< sequencer blocked on the writer ring
  /// Per-exec-thread durable-ack wait (rule R6 gate).
  std::vector<std::unique_ptr<StallSlot>> exec_log_stall_;
  /// True while Recover() is pushing the old log back through the
  /// pipeline: suppresses re-logging and the durable-ack gate. The
  /// release store back to false publishes log_base_ (rule R6).
  std::atomic<bool> replaying_{false};
  /// seqno of batch id b is log_base_ + b; seqno 0 is reserved. Written
  /// by Recover() before replaying_ returns to false; read by the
  /// sequencer and exec threads only when replaying_ is false.
  uint64_t log_base_ = 1;
  bool recovered_ = false;  // Recover() ran (gates Start's nonempty check)
  RecoveryStats recovery_stats_;
  /// Sequencer-private scratch for batch payload encoding.
  std::vector<const StoredProcedure*> log_txn_scratch_;

  std::vector<std::thread> threads_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> sequencer_done_{false};
  /// The sequencer's watermark: batches 0..last_sealed_batch_ are sealed.
  /// Its release store publishes a batch's slot contents to the CC
  /// threads, and through their watermarks to execution (rule R5). Every
  /// pipeline thread polls it, so it gets its own line, away from
  /// submitted_ (a fetch_add per Submit) and next_ts_.
  alignas(kCacheLineSize) std::atomic<int64_t> last_sealed_batch_{-1};
  alignas(kCacheLineSize) std::atomic<uint64_t> submitted_{0};
  uint64_t next_ts_ = 1;         // sequencer-private
  int64_t next_batch_id_ = 0;    // sequencer-private
};

}  // namespace bohm
