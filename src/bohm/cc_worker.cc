// The concurrency-control stage (Sections 3.2.2–3.2.4), streamed.
//
// Every CC thread walks every batch in log order and, for each
// transaction, processes exactly those read/write-set elements whose
// physical partition (static hash of the key) it currently owns under
// the batch's partition map. The decision is purely thread-local; two CC
// threads never touch the same record inside one map epoch, and epoch
// handoff is ordered by the watermark/feed edges (rule R7), so version
// insertion needs no synchronization. The only cross-thread
// coordination is one release store per batch: each thread advances its
// own cc_watermark_ slot when its partition slice is done and streams
// straight into the next batch — it never waits for its peers. The
// execution stage folds min(cc_watermark) to admit batches, so a thread
// that falls behind delays execution of that batch but stalls nobody in
// this stage (the barrier this replaces parked every CC thread once per
// batch).

#include "bohm/engine.h"

namespace bohm {

void BohmEngine::CcLoop(uint32_t cc_id) {
  SpscQueue<int64_t>& feed = *cc_feed_[cc_id];
  StallSlot& stall = *cc_stall_[cc_id];
  const BohmTestHooks* hooks = hooks_.get();
  for (;;) {
    int64_t b;
    if (!feed.TryPop(&b)) {
      // Feed dry: park until the sequencer seals the next batch, charging
      // the wait to this stage's stall attribution. Shutdown: once the
      // sequencer is done (its done flag is release-stored after the last
      // feed push), a failed re-poll means the feed is drained for good.
      // SealBatch and the done store both notify idle_ (rule R9).
      const uint64_t stall_start = MonotonicNanos();
      for (;;) {
        if (feed.TryPop(&b)) break;
        if (sequencer_done_.load(std::memory_order_acquire)) {
          if (feed.TryPop(&b)) break;
          stall.ns.Inc(MonotonicNanos() - stall_start);
          return;
        }
        idle_.Await(
            [&] {
              return !feed.Empty() ||
                     sequencer_done_.load(std::memory_order_acquire);
            },
            [this] { return PipelineBusy(); });
      }
      stall.ns.Inc(MonotonicNanos() - stall_start);
    }

    Batch* batch = ring_.Slot(b);
    if (hooks != nullptr && hooks->cc_batch_start) {
      hooks->cc_batch_start(cc_id, b);
    }

    // Recycle versions whose retirement batch the execution layer has
    // fully passed (Condition 3, Section 3.3.2). Amortized once per batch.
    if (cfg_.gc_enabled) DrainRetired(cc_id);

    // Interest skipping needs a defined shift: cc_id >= 64 only happens
    // with preprocessing disabled (Start() validates), where every txn
    // carries the all-ones mask anyway.
    const uint64_t my_bit = cc_id < 64 ? 1ull << cc_id : 0;
    for (BohmTxn* txn : batch->txns) {
      if (my_bit != 0 && (txn->cc_interest & my_bit) == 0) continue;
      CcProcessTxn(cc_id, txn, b);
    }

    if (hooks != nullptr && hooks->cc_batch_end) {
      hooks->cc_batch_end(cc_id, b);
    }
    // Epoch-watermark publication (replaces the per-batch barrier): the
    // release store orders every annotation and placeholder this thread
    // wrote into batch b before it, so an exec thread whose watermark
    // fold admits b observes them all (docs/CONCURRENCY.md rule R5).
    cc_watermark_.Advance(cc_id, b);
    idle_.Notify();  // exec admission parks on the fold (rule R9)
  }
}

void BohmEngine::CcProcessTxn(uint32_t cc_id, BohmTxn* txn, int64_t batch_id) {
  CcState& st = *cc_state_[cc_id];
  // Route by the batch's partition map, not by thread id: the physical
  // partition (static hash) selects the index shard, the map says whether
  // this thread currently owns it (rule R7). The batch's owners copy was
  // published by the feed push (rule R5) and lives as long as its slot.
  const Batch* batch = ring_.Slot(batch_id);
  const uint32_t* owners = batch->owners.data();
  RelaxedCounter* touch = st.touch.get();

  // Reads first: the annotation must reference the version that precedes
  // any placeholder this same transaction inserts (RMW reads observe the
  // pre-update value). Because CC threads process transactions in
  // timestamp order, the current head of a record in this partition *is*
  // the correct version for this transaction to read (Section 3.2.3).
  if (cfg_.read_annotation) {
    for (uint32_t i = 0; i < txn->n_reads; ++i) {
      ReadRef& r = txn->reads[i];
      BohmTable* table = db_.table(r.rec.table);
      const uint32_t part = table->PartitionOf(r.rec.key);
      if (owners[part] != cc_id) continue;
      touch[part].Inc();
      BohmIndexEntry* entry = table->Find(part, r.rec.key);
      // relaxed: this CC thread is the current single writer of heads in
      // the partitions it owns (ownership handoff itself rides the
      // watermark/feed release-acquire edges, rule R7), so it reads back
      // the latest store; cross-thread visibility of the annotation
      // itself rides the cc_watermark_ release/acquire edge (rule R5).
      r.version =
          entry ? entry->head.load(std::memory_order_relaxed) : nullptr;
      r.resolved = true;
    }
  }

  // Writes: insert an uninitialized placeholder version per element
  // (Section 3.2.2, Figure 3). The placeholder is fully initialized
  // (begin_ts, producer, prev) *before* it becomes reachable — either via
  // GetOrInsert's pre-publication head install (new record) or via the
  // head release-store below (existing record) — so a concurrent reader
  // never observes a partial version.
  for (uint32_t i = 0; i < txn->n_writes; ++i) {
    WriteRef& w = txn->writes[i];
    BohmTable* table = db_.table(w.rec.table);
    const uint32_t part = table->PartitionOf(w.rec.key);
    if (owners[part] != cc_id) continue;
    touch[part].Inc();

    Version* v = st.alloc.Alloc(w.rec.table, record_sizes_[w.rec.table]);
    v->begin_ts = txn->ts;
    v->producer = txn;  // prev stays nullptr from Alloc until linked below

    bool inserted = false;
    BohmIndexEntry* entry = table->GetOrInsert(part, w.rec.key, v, &inserted);
    if (!inserted) {
      // relaxed: this CC thread is the current single writer of this
      // record's head (single ownership at any moment; handoff rides the
      // R7 edges, so the previous owner's stores are visible), and
      // readers synchronize via the release below (or the entry
      // publication).
      Version* old = entry->head.load(std::memory_order_relaxed);
      v->prev = old;
      if (old != nullptr) {
        // Invalidate the superseded version (its end timestamp becomes
        // this transaction's timestamp) and queue it for collection once
        // every execution thread has finished this batch.
        old->end_ts.store(txn->ts, std::memory_order_release);
        if (cfg_.gc_enabled) RetireVersion(cc_id, old, batch_id);
      }
      entry->head.store(v, std::memory_order_release);
    }
    w.version = v;
  }
}

}  // namespace bohm
