// The transaction-execution stage (Section 3.3.1).
//
// Execution threads receive batches whose concurrency control is already
// complete: every write has a placeholder version and every read is (or
// can be) resolved to the exact version to observe. Transactions are
// striped across execution threads (thread i is *responsible* for
// transactions i, i+n, ...), but any thread may execute any transaction by
// winning the Unprocessed -> Executing claim — which is how unsatisfied
// read dependencies are resolved: the blocked thread recursively evaluates
// the producing transaction instead of waiting for it.

#include <cassert>
#include <cstring>

#include "common/spin.h"
#include "bohm/engine.h"

namespace bohm {

/// Bohm's TxnOps: reads return resolved version data (guaranteed ready by
/// the dependency-resolution pass); writes return placeholder buffers.
class BohmOps final : public TxnOps {
 public:
  BohmOps(BohmTxn* txn, ThreadStats* stats) : txn_(txn), stats_(stats) {}

  const void* Read(TableId table, Key key) override {
    ReadRef* r = txn_->FindRead(table, key);
    assert(r != nullptr && "access to undeclared read-set element");
    if (r == nullptr) return nullptr;
    stats_->reads.Inc();
    Version* v = r->version;  // resolved before Run() was entered
    if (v == nullptr || v->tombstone()) return nullptr;
    return v->data();
  }

  void* Write(TableId table, Key key) override {
    WriteRef* w = txn_->FindWrite(table, key);
    assert(w != nullptr && "access to undeclared write-set element");
    if (w == nullptr) return nullptr;
    stats_->writes.Inc();
    return w->version->data();
  }

  bool Delete(TableId table, Key key) override {
    WriteRef* w = txn_->FindWrite(table, key);
    assert(w != nullptr && "delete of undeclared write-set element");
    if (w == nullptr) return false;
    stats_->writes.Inc();
    w->tombstone = true;  // published as a tombstone version after Run()
    return true;
  }

  void Abort() override { aborted_ = true; }
  bool aborted() const override { return aborted_; }

 private:
  BohmTxn* txn_;
  ThreadStats* stats_;
  bool aborted_ = false;
};

// Rule R9: an exec thread parks with its pin fresh, and wakes whenever
// the exec watermark passes its pin, to refresh it. A thread parked with
// a stale pin would hold the sequencer's slot-reuse gate (rule R8) while
// nothing woke it; once exec_threads > 1 the pipeline would deadlock.
// Every exec watermark advance notifies idle_.
template <typename Pred, typename Busy>
void BohmEngine::ExecAwait(uint32_t exec_id, Pred ready, Busy busy) {
  for (;;) {
    RefreshExecPin(exec_id);
    if (ready()) return;
    idle_.Await(
        [&] { return ready() || Watermark() > exec_pin_.Get(exec_id); },
        busy);
  }
}

void BohmEngine::ExecLoop(uint32_t exec_id) {
  StallSlot& stall = *exec_stall_[exec_id];
  const BohmTestHooks* hooks = hooks_.get();
  // Batch ids are dense, so this thread walks 0, 1, 2, ... .
  for (int64_t b = 0;; ++b) {
    // Admission: execution may enter batch b only once every CC thread
    // has finished its slice of b — min(cc_watermark) >= b, which implies
    // b is sealed. The acquire fold pairs with each CC thread's release
    // watermark store, so all placeholders and annotations of batch b are
    // visible here (rule R5). Shutdown: once the sequencer is done (its
    // flag is release-stored after its last seal) and b is still
    // unsealed, b is never sealed and this thread returns. A sealed b is
    // always admitted eventually: CC threads exit only past every sealed
    // batch.
    if (cc_watermark_.Min() < b) {
      const uint64_t stall_start = MonotonicNanos();
      ExecAwait(
          exec_id,
          [&] {
            return cc_watermark_.Min() >= b ||
                   (sequencer_done_.load(std::memory_order_acquire) &&
                    last_sealed_batch() < b);
          },
          [this] { return PipelineBusy(); });
      stall.ns.Inc(MonotonicNanos() - stall_start);
      if (cc_watermark_.Min() < b) return;
    }

    // Durable-ack gate (docs/CONCURRENCY.md rule R6): a batch may execute
    // — and therefore acknowledge commits — only once its log record is
    // durable, so "acknowledged" always implies "survives a crash". Off
    // during replay (those batches are durable by definition) and broken
    // by a writer failure: the engine then degrades to non-durable
    // execution of in-flight work while Submit rejects anything new,
    // rather than wedging shutdown on a watermark that will never move.
    if (log_writer_ != nullptr && cfg_.durability.durable_ack &&
        !replaying_.load(std::memory_order_acquire)) {
      const uint64_t need = log_base_ + static_cast<uint64_t>(b);
      if (log_writer_->durable_seqno() < need && !log_writer_->failed()) {
        const uint64_t stall_start = MonotonicNanos();
        // The writer notifies idle_ after every durable advance and on
        // failure. An fsync is I/O, not a stage at work: park through it.
        ExecAwait(
            exec_id,
            [&] {
              return log_writer_->durable_seqno() >= need ||
                     log_writer_->failed();
            },
            [] { return false; });
        exec_log_stall_[exec_id]->ns.Inc(MonotonicNanos() - stall_start);
      }
    }

    Batch* batch = ring_.Slot(b);
    if (hooks != nullptr && hooks->exec_batch_start) {
      hooks->exec_batch_start(exec_id, b);
    }
    // Between batches this thread holds no producer pointer (rule R8).
    // Every wait above refreshes the pin too (ExecAwait), so the
    // slot-reuse gate never waits on an idle thread.
    RefreshExecPin(exec_id);

    // Stripe: this thread is responsible for transactions exec_id,
    // exec_id + n, ... . Other threads may execute them (and this thread
    // may execute theirs, through dependency recursion), but this thread
    // cannot advance to batch b+1 until all of its stripe is Complete.
    const size_t n = batch->txns.size();
    bool all_done = false;
    SpinWait wait;
    while (!all_done) {
      all_done = true;
      for (size_t idx = exec_id; idx < n; idx += cfg_.exec_threads) {
        BohmTxn* txn = batch->txns[idx];
        if (!txn->IsComplete()) {
          TryExecute(exec_id, txn, 0);
          if (!txn->IsComplete()) all_done = false;
        }
      }
      if (!all_done) wait.Pause();
    }
    if (hooks != nullptr && hooks->exec_batch_end) {
      hooks->exec_batch_end(exec_id, b);
    }
    exec_watermark_.Advance(exec_id, b);
    // Wakes peers whose pin fell behind, the slot-reuse gate and
    // WaitForIdle (rule R9).
    idle_.Notify();
  }
}

// Rule R8: a producer pointer read out of an unready version may outlive
// the producer's batch — another thread can complete that batch, and the
// sequencer could then recycle its slot, before this thread's claim CAS.
// The pin published here makes the slot-reuse gate wait for this thread
// instead. Every batch <= the Watermark() read here was complete, its
// versions ready and visible through the fold's acquire, so until the
// next refresh this thread only follows producer pointers into batches
// above the pin.
void BohmEngine::RefreshExecPin(uint32_t exec_id) {
  const int64_t w = Watermark();
  if (w > exec_pin_.Get(exec_id)) {
    exec_pin_.Advance(exec_id, w);
    idle_.Notify();  // the sequencer's slot-reuse gate parks on the pins
  }
}

Version* BohmEngine::ResolveRead(ReadRef& ref, uint64_t ts) const {
  // Chain traversal (the non-annotated path of Section 3.2.3): walk the
  // version list from the newest version until one created strictly before
  // this transaction is found. The strict inequality also skips the
  // transaction's own placeholder on an RMW, giving read-before-write
  // semantics.
  const BohmTable* table = db_.table(ref.rec.table);
  BohmIndexEntry* entry =
      table->Find(table->PartitionOf(ref.rec.key), ref.rec.key);
  if (entry == nullptr) return nullptr;
  Version* v = entry->head.load(std::memory_order_acquire);
  while (v != nullptr && v->begin_ts >= ts) v = v->prev;
  return v;
}

bool BohmEngine::EnsureReady(uint32_t exec_id, Version* v, uint32_t depth) {
  if (v->ready()) return true;
  if (depth >= cfg_.max_dependency_depth) return false;
  BohmTxn* producer = v->producer;
  if (producer == nullptr) return v->ready();
  const BohmTestHooks* hooks = hooks_.get();
  if (hooks != nullptr && hooks->exec_dependency) {
    hooks->exec_dependency(exec_id, producer->batch_id);
  }
  TryExecute(exec_id, producer, depth);
  // The producer may also have been completed concurrently by another
  // thread while our claim attempt failed.
  return v->ready();
}

bool BohmEngine::FillAbortedWrites(uint32_t exec_id, BohmTxn* txn,
                                   uint32_t depth) {
  // An aborted transaction's placeholder must carry the preceding
  // version's value (Section 3.3.1: "the data written to its version of x
  // is equal to that produced by T1" — the abort is a read dependency on
  // every preceding version). Pass 1 resolves those dependencies; pass 2
  // copies and publishes.
  for (uint32_t i = 0; i < txn->n_writes; ++i) {
    Version* prev = txn->writes[i].version->prev;
    if (prev != nullptr && !EnsureReady(exec_id, prev, depth + 1)) {
      return false;
    }
  }
  for (uint32_t i = 0; i < txn->n_writes; ++i) {
    Version* v = txn->writes[i].version;
    Version* prev = v->prev;
    if (prev == nullptr || prev->tombstone()) {
      v->flags.store(kVersionReady | kVersionTombstone,
                     std::memory_order_release);
    } else {
      std::memcpy(v->data(), prev->data(), record_sizes_[v->table]);
      v->flags.store(kVersionReady, std::memory_order_release);
    }
  }
  return true;
}

bool BohmEngine::TryExecute(uint32_t exec_id, BohmTxn* txn, uint32_t depth) {
  uint32_t expected = static_cast<uint32_t>(ExecState::kUnprocessed);
  if (!txn->state.compare_exchange_strong(
          expected, static_cast<uint32_t>(ExecState::kExecuting),
          std::memory_order_acq_rel, std::memory_order_acquire)) {
    // Already Executing on another thread (caller backs off) or Complete.
    return expected == static_cast<uint32_t>(ExecState::kComplete);
  }

  // Resolve every read dependency before evaluating any logic: all reads
  // must observe ready versions. If a producer cannot be evaluated right
  // now (claimed by another thread, or the recursion bound is hit), put
  // the transaction back to Unprocessed; a responsible thread will retry
  // (Section 3.3.1).
  for (uint32_t i = 0; i < txn->n_reads; ++i) {
    ReadRef& r = txn->reads[i];
    if (!r.resolved) {
      r.version = ResolveRead(r, txn->ts);
      r.resolved = true;
    }
    if (r.version != nullptr && !EnsureReady(exec_id, r.version, depth + 1)) {
      txn->state.store(static_cast<uint32_t>(ExecState::kUnprocessed),
                       std::memory_order_release);
      return false;
    }
  }

  ThreadStats& stats = stats_.Slice(exec_id);
  BohmOps ops(txn, &stats);
  txn->proc->Run(ops);

  if (ops.aborted()) {
    if (!FillAbortedWrites(exec_id, txn, depth)) {
      // A preceding version was not producible right now; back out. The
      // re-run is safe: procedures are deterministic in their reads, and
      // the annotated read versions are fixed.
      txn->state.store(static_cast<uint32_t>(ExecState::kUnprocessed),
                       std::memory_order_release);
      return false;
    }
    txn->logic_aborted = true;
    stats.logic_aborts.Inc();
  } else {
    for (uint32_t i = 0; i < txn->n_writes; ++i) {
      const uint32_t flags =
          kVersionReady | (txn->writes[i].tombstone ? kVersionTombstone : 0);
      txn->writes[i].version->flags.store(flags, std::memory_order_release);
    }
    // Submit→commit-ack latency: stamped at Submit(), recorded here at
    // commit publication.
    RecordCommit(stats, txn->submit_tick);
  }
  txn->state.store(static_cast<uint32_t>(ExecState::kComplete),
                   std::memory_order_release);
  return true;
}

}  // namespace bohm
