// Garbage collection, Condition 3 (Section 3.3.2): a version superseded by
// a transaction in batch b can be recycled once every execution thread has
// finished batch b. The low-watermark is folded on demand from per-thread
// completed-batch counters, each written only by its own execution thread
// — the RCU-flavoured scheme the paper describes, with no shared counter
// updates on the transaction path.

#include "bohm/engine.h"

namespace bohm {

// Thread-safety: `retired` and `alloc` are plain (unlocked) members of
// CcState because each is touched only by the one CC thread that owns the
// partition (docs/CONCURRENCY.md, "single-writer ownership"). Watermark()
// folds the per-thread *execution* watermarks (release-published), so
// every version at or below the watermark is quiescent by the time it is
// freed here. This composes with the streamed CC stage's own watermarks:
// the execution watermark can never pass the CC watermark (execution only
// admits batches the CC fold has passed), so a CC thread running several
// batches ahead merely queues more retirees — it can never free a version
// an execution thread might still read, and slot reuse (keyed on the
// exec pins, which never pass Watermark(); rule R8) can never recycle a
// batch a CC thread is still inside.
// Allocator routing (rule R7): free lists are single-threaded, so a
// version must return to the thread that allocated it. Until a
// partition migrates the retiring thread *is* the allocator. After a
// partition migration the first supersede of each migrated record retires
// a version the old owner allocated; it is handed back through the
// allocator's MPSC ring (producers: any CC thread; consumer: the
// allocator's own DrainRetired). A full ring spills to a producer-local
// deque retried next batch — retirement never blocks the CC hot path.
void BohmEngine::RetireVersion(uint32_t cc_id, Version* v, int64_t batch_id) {
  CcState& st = *cc_state_[cc_id];
  if (v->allocator == cc_id) {
    st.retired.emplace_back(v, batch_id);
    return;
  }
  if (!cc_state_[v->allocator]->handback->TryPush({v, batch_id})) {
    st.handback_spill.emplace_back(v, batch_id);
  }
}

void BohmEngine::DrainRetired(uint32_t cc_id) {
  CcState& st = *cc_state_[cc_id];
  // Retry spilled handbacks (each targets its version's allocator).
  while (!st.handback_spill.empty()) {
    const auto& e = st.handback_spill.front();
    if (!cc_state_[e.first->allocator]->handback->TryPush(e)) break;
    st.handback_spill.pop_front();
  }
  // Adopt foreign-retired versions of our own making. They may arrive
  // out of batch order relative to the local deque; entries are freed
  // only when the watermark has passed their batch, so a late arrival is
  // merely freed a little later — never prematurely.
  std::pair<Version*, int64_t> e;
  while (st.handback->TryPop(&e)) st.retired.push_back(e);
  if (st.retired.empty()) return;
  const int64_t watermark = Watermark();
  while (!st.retired.empty() && st.retired.front().second <= watermark) {
    st.alloc.Free(st.retired.front().first);
    st.retired.pop_front();
    st.freed.Inc();
  }
}

}  // namespace bohm
