// Batches and the slot ring backing the streamed Bohm pipeline.
//
// Coordination happens once per batch, never per transaction (Section
// 3.2.4) — and since the move to epoch watermarks, "coordination" means
// publishing a counter, not parking at a barrier. The sequencer fills a
// batch slot and announces it by raising its own watermark, the highest
// sealed batch id (batch ids are dense); every CC thread walks every
// sealed batch in order (deriving parallelism from intra-transaction
// partitioning, not batch partitioning) and advances its own entry in a
// WatermarkSet (common/watermark.h) when its partition slice is done.
// Execution threads may start striping batch b as soon as
// min(cc_watermark) >= b — CC threads stream straight into batch b+1
// while execution is still inside b (Section 3.3.1).
//
// The ring has a fixed number of slots. A slot for batch b is reused for
// batch b + depth only once no execution thread can still reach b, which
// the sequencer checks against the execution threads' reclamation pins
// (rule R8). A pin never passes its thread's execution watermark — the
// watermark that drives garbage collection (Section 3.3.2) — and that
// watermark can never pass the CC watermark, so slot reuse also implies
// every execution and CC thread has left the batch.
//
// The Batch struct itself carries no publication state: the sequencer's
// release store of the sealed batch id publishes the filled slot, and the
// watermark stores are the CC stage's (docs/CONCURRENCY.md rule R5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/macros.h"
#include "bohm/txn_state.h"

namespace bohm {

struct Batch {
  int64_t id = -1;
  std::vector<BohmTxn*> txns;
  /// Owns the procedures for the lifetime of the batch slot generation.
  std::vector<ProcedurePtr> procs;
  /// Holds the BohmTxn objects and their read/write ref arrays.
  Arena arena{1u << 16};
  /// The partition map (partition -> CC thread) this batch was sequenced
  /// under, copied in by the sequencer before the seal (plain stores
  /// riding the R5 release edge; rule R7). CC threads route every
  /// read/write-set element by owners[PartitionOf(key)]. The copy belongs
  /// to the slot, so it is recycled with it (rule R8) and keeps its
  /// capacity across reuses.
  std::vector<uint32_t> owners;

  void ResetForReuse() {
    txns.clear();
    procs.clear();
    arena.Reset();
    owners.clear();
  }
};

/// Fixed-depth pipeline of batch slots.
class BatchRing {
 public:
  explicit BatchRing(uint32_t depth) {
    slots_.reserve(depth);
    for (uint32_t i = 0; i < depth; ++i) {
      slots_.push_back(std::make_unique<Batch>());
    }
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(BatchRing);

  uint32_t depth() const { return static_cast<uint32_t>(slots_.size()); }
  Batch* Slot(int64_t batch_id) {
    return slots_[static_cast<uint64_t>(batch_id) % slots_.size()].get();
  }

 private:
  std::vector<std::unique_ptr<Batch>> slots_;
};

}  // namespace bohm
