// The sequencer stage (Section 3.2.1): a single thread that appends every
// input transaction to a logical log. A transaction's timestamp is its
// position in that log — timestamp assignment is therefore an uncontended,
// single-writer operation, in contrast to the global fetch-and-increment
// counters of conventional multi-version systems (Section 2.1).

#include <algorithm>
#include <utility>

#include "common/spin.h"
#include "bohm/engine.h"
#include "log/codec.h"

namespace bohm {

// Hands the sealed batch to the log-writer thread (sequencer thread
// only). Runs *before* the batch is announced to the pipeline so the
// writer sees records in exactly seal order; the only wait here is ring
// back-pressure, attributed to the log stall counter. Every sealed batch
// gets a record — even one whose transactions are all non-loggable
// read-only observers produces an (empty) record, because the durable-ack
// gate in ExecLoop waits for seqno log_base_ + id and seqnos must stay
// dense for the recovery scan.
void BohmEngine::LogSealedBatch(const Batch& batch, int64_t id) {
  if (log_writer_ == nullptr) return;
  if (replaying_.load(std::memory_order_acquire)) return;
  // Degraded mode: the log is dead, Submit is already rejecting; batches
  // still in flight execute without durability rather than wedging.
  if (log_writer_->failed()) return;
  log_txn_scratch_.clear();
  for (const BohmTxn* txn : batch.txns) {
    if (txn->proc->codec_id() != kNotLoggable) {
      log_txn_scratch_.push_back(txn->proc);
    }
  }
  std::string payload;
  EncodeBatchPayload(&payload, log_txn_scratch_);
  const uint64_t stall_ns =
      log_writer_->Append(log_base_ + static_cast<uint64_t>(id),
                          std::move(payload));
  if (stall_ns != 0) seq_log_stall_.ns.Inc(stall_ns);
}

// Folds the cumulative per-partition touch counters across CC threads
// and hands them to the repartition controller, which may stage a
// pending migration (promoted later once its watermark gate opens).
void BohmEngine::FoldTouchCounters() {
  const uint32_t parts = db_.partitions();
  std::fill(touch_totals_.begin(), touch_totals_.end(), 0);
  for (const auto& st : cc_state_) {
    const RelaxedCounter* touch = st->touch.get();
    for (uint32_t p = 0; p < parts; ++p) {
      touch_totals_[p] += touch[p].Get();
    }
  }
  repart_->Observe(touch_totals_);
}

void BohmEngine::SealBatch(Batch* batch, int64_t id) {
  batch->id = id;
  LogSealedBatch(*batch, id);
  // Publish the sealed batch: this release store is what makes the slot
  // contents the sequencer just wrote visible to every CC thread that
  // reads last_sealed_batch() >= id, and through the CC watermarks to
  // execution (docs/CONCURRENCY.md rule R5). A consumer reaches batch id
  // only through this store, so PipelineBusy() already holds when it
  // does (rule R9).
  last_sealed_batch_.store(id, std::memory_order_release);
  idle_.Notify();  // CC threads park on the next unsealed id
}

// Thread-safety: `next_batch_id_` and `next_ts_` are plain fields written
// only by this single sequencer thread (docs/CONCURRENCY.md,
// "single-writer ownership"); downstream stages learn about a batch solely
// through SealBatch's release store, which orders everything the
// sequencer wrote into the batch before them.
void BohmEngine::SequencerLoop() {
  for (;;) {
    const int64_t id = next_batch_id_;
    // Back-pressure: slot (id mod depth) is reusable only once no
    // execution thread can still reach the batch that used it previously
    // (batch id - depth): every exec pin has passed it (rule R8), which
    // implies every execution thread has also finished it. This is the
    // only place the sequencer waits on downstream progress; the time
    // spent here is the sequencer's stall attribution. Pins advance only
    // in RefreshExecPin, which notifies idle_.
    //
    // This wait parks past the spin budget even though the pipeline is
    // busy (an unreused slot means a sealed batch is not yet executed):
    // depth - 1 sealed batches stand ahead of execution, so the wake is
    // hidden behind them (rule R9).
    Batch* batch = ring_.Slot(id);
    const int64_t prev_occupant = id - static_cast<int64_t>(ring_.depth());
    if (exec_pin_.Min() < prev_occupant) {
      const uint64_t stall_start = MonotonicNanos();
      idle_.Await([&] { return exec_pin_.Min() >= prev_occupant; });
      seq_stall_.ns.Inc(MonotonicNanos() - stall_start);
    }
    batch->ResetForReuse();

    // Fill the batch. Seal early when the input queue runs dry so that a
    // trickle of transactions does not wait for a full batch.
    const uint32_t* owners = nullptr;
    bool stop_after = false;
    while (batch->txns.size() < cfg_.batch_size) {
      InputItem item;
      if (input_.TryPop(&item)) {
        if (owners == nullptr) {
          // Partition routing (rule R7) waits for the batch's first
          // transaction, so an idle sequencer consults the promotion gate
          // (every source thread's cc watermark past id - 1) only after
          // CC has caught up. At the fold cadence the controller updates
          // the imbalance gauge and may stage a migration. The batch gets
          // its own copy of the map, which its slot owns (rule R8).
          const auto interval =
              static_cast<int64_t>(cfg_.adaptive.interval_batches);
          if (id > 0 && id % interval == 0) FoldTouchCounters();
          batch->owners = repart_->MapForBatch(id, cc_watermark_);
          owners = batch->owners.data();
        }
        StoredProcedure* raw = item.proc;
        if (item.owned) batch->procs.emplace_back(raw);
        const ReadWriteSet& set = raw->rwset();
        auto* txn = batch->arena.New<BohmTxn>();
        txn->proc = raw;
        txn->ts = next_ts_++;
        txn->batch_id = id;
        txn->submit_tick = item.submit_tick;
        txn->n_reads = static_cast<uint32_t>(set.reads().size());
        txn->n_writes = static_cast<uint32_t>(set.writes().size());
        if (txn->n_reads > 0) {
          txn->reads = static_cast<ReadRef*>(batch->arena.Allocate(
              sizeof(ReadRef) * txn->n_reads, alignof(ReadRef)));
          for (uint32_t i = 0; i < txn->n_reads; ++i) {
            txn->reads[i] = ReadRef{set.reads()[i], nullptr, false};
          }
        }
        if (txn->n_writes > 0) {
          txn->writes = static_cast<WriteRef*>(batch->arena.Allocate(
              sizeof(WriteRef) * txn->n_writes, alignof(WriteRef)));
          for (uint32_t i = 0; i < txn->n_writes; ++i) {
            txn->writes[i] = WriteRef{set.writes()[i], nullptr, false};
          }
        }
        if (cfg_.interest_preprocessing) {
          // Pre-processing (Section 3.2.2): mark which CC *threads* this
          // transaction has work for, under this batch's partition map,
          // so CC threads skip it wholesale. Owner ids are < cc_threads
          // <= 64 (Start() validates), so the shift is always defined —
          // partition counts above 64 are fine.
          uint64_t mask = 0;
          for (uint32_t i = 0; i < txn->n_writes; ++i) {
            const RecordId& rec = txn->writes[i].rec;
            mask |= 1ull << owners[db_.table(rec.table)->PartitionOf(rec.key)];
          }
          if (cfg_.read_annotation) {
            for (uint32_t i = 0; i < txn->n_reads; ++i) {
              const RecordId& rec = txn->reads[i].rec;
              mask |=
                  1ull << owners[db_.table(rec.table)->PartitionOf(rec.key)];
            }
          }
          txn->cc_interest = mask;
        }
        batch->txns.push_back(txn);
        continue;
      }
      // Queue empty.
      if (!batch->txns.empty()) break;  // seal a partial batch immediately
      if (stopping_.load(std::memory_order_acquire)) {
        stop_after = true;
        break;
      }
      // Submit and Stop notify idle_ after their publication.
      idle_.Await(
          [this] {
            return !input_.Empty() ||
                   stopping_.load(std::memory_order_acquire);
          },
          [this] { return PipelineBusy(); });
    }

    if (!batch->txns.empty()) {
      SealBatch(batch, id);
      ++next_batch_id_;
    }
    if (stop_after) break;
  }
  sequencer_done_.store(true, std::memory_order_release);
  idle_.Notify();
}

}  // namespace bohm
