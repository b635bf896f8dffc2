// Transaction objects for the Hekaton/SI engines, including commit
// dependencies: "an optimization that allows a transaction to
// speculatively read uncommitted data" (Section 4). A transaction that
// speculatively reads a Preparing transaction's version registers itself
// as a dependent; it cannot commit until the dependency resolves, and
// aborts (cascading) if the dependency aborts.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/spin.h"
#include "mvocc/mv_record.h"

namespace bohm {

enum class MVTxnState : uint32_t {
  kActive = 0,     // executing logic
  kPreparing = 1,  // end timestamp acquired, validating
  kCommitted = 2,
  kAborted = 3,
};

class MVTxn {
 public:
  MVTxn() = default;
  BOHM_DISALLOW_COPY_AND_ASSIGN(MVTxn);

  std::atomic<uint32_t> state{static_cast<uint32_t>(MVTxnState::kActive)};
  uint64_t begin_ts = 0;
  /// 0 until set. The owner publishes kPreparing *before* it takes the end
  /// timestamp from the clock, so every transaction that begins after the
  /// end timestamp was issued sees this one as at least Preparing. Read it
  /// through EndTs() once the state shows Preparing or later.
  std::atomic<uint64_t> end_ts{0};

  /// Outstanding commit dependencies this transaction waits on.
  std::atomic<int32_t> dep_count{0};
  /// Set when any dependency aborted (forces a cascaded abort).
  std::atomic<bool> dep_failed{false};

  MVTxnState State() const {
    return static_cast<MVTxnState>(state.load(std::memory_order_acquire));
  }

  /// The end timestamp of a transaction observed Preparing or later. The
  /// owner sets it right after publishing kPreparing; a reader that gets
  /// in between waits for it.
  uint64_t EndTs() const {
    SpinWait wait;
    for (;;) {
      const uint64_t e = end_ts.load(std::memory_order_acquire);
      if (e != 0) return e;
      wait.Pause();
    }
  }

  /// Waits for a transaction observed Preparing to commit or abort.
  /// Preparing transactions wait only on older Preparing ones (their
  /// commit dependencies), never on an Active reader, so this cannot
  /// deadlock.
  MVTxnState AwaitOutcome() const {
    SpinWait wait;
    for (;;) {
      const MVTxnState s = State();
      if (s == MVTxnState::kCommitted || s == MVTxnState::kAborted) return s;
      wait.Pause();
    }
  }

  /// Registers `dependent` as waiting on this transaction's outcome.
  /// Returns false when this transaction is no longer Preparing — the
  /// caller must then resolve against the final state itself.
  bool TryRegisterDependent(MVTxn* dependent);

  /// Transitions Preparing -> outcome and resolves all registered
  /// dependents (decrement their counters; flag them on abort).
  void FinishAndResolveDependents(MVTxnState outcome);

  /// Read-set entry: version observed (Hekaton validation re-checks its
  /// visibility as of the end timestamp).
  struct ReadEntry {
    MVVersion* version;
  };
  /// Write-set entry: the version this transaction installed and the
  /// predecessor whose End field it tagged (nullptr for an insert).
  struct WriteEntry {
    MVRecordSlot* slot;
    MVVersion* installed;
    MVVersion* replaced;
  };

  std::vector<ReadEntry> read_set;
  std::vector<WriteEntry> write_set;

 private:
  SpinLock dep_lock_;
  std::vector<MVTxn*> dependents_;
};

}  // namespace bohm
