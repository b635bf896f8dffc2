// Garbage collection, Condition 3 (Section 3.3.2): a version superseded by
// a transaction in batch b can be recycled once every execution thread has
// finished batch b. The low-watermark is folded on demand from per-thread
// completed-batch counters, each written only by its own execution thread
// — the RCU-flavoured scheme the paper describes, with no shared counter
// updates on the transaction path.

#include "bohm/engine.h"

namespace bohm {

// Thread-safety: `retired` and `alloc` are plain (unlocked) members of
// CcState because each is touched only by its own CC thread
// (docs/CONCURRENCY.md, "single-writer ownership"). Watermark()
// folds the per-thread *execution* watermarks (release-published), so
// every version at or below the watermark is quiescent by the time it is
// freed here. This composes with the streamed CC stage's own watermarks:
// the execution watermark can never pass the CC watermark (execution only
// admits batches the CC fold has passed), so a CC thread running several
// batches ahead merely queues more retirees — it can never free a version
// an execution thread might still read, and slot reuse (keyed on the
// exec pins, which never pass Watermark(); rule R8) can never recycle a
// batch a CC thread is still inside.
// Migration (rule R7) needs nothing extra here: after a partition moves,
// its new owner retires versions the old owner allocated and frees them
// into its own pool. Free lists are per table, and arena memory lives as
// long as the engine, so a version may end its life in any thread's pool.
// Each `retired` deque is filled in batch order by its own thread, so
// draining stops at the first entry the watermark has not yet passed.
void BohmEngine::RetireVersion(uint32_t cc_id, Version* v, int64_t batch_id) {
  cc_state_[cc_id]->retired.emplace_back(v, batch_id);
}

void BohmEngine::DrainRetired(uint32_t cc_id) {
  CcState& st = *cc_state_[cc_id];
  if (st.retired.empty()) return;
  const int64_t watermark = Watermark();
  while (!st.retired.empty() && st.retired.front().second <= watermark) {
    st.alloc.Free(st.retired.front().first);
    st.retired.pop_front();
    st.freed.Inc();
  }
}

}  // namespace bohm
