// Record versions, exactly the layout of Figure 3 in the paper:
// {begin timestamp, end timestamp, txn pointer, data, prev pointer}.
//
// A version is created by a concurrency-control thread as an uninitialized
// placeholder (Section 3.2.2); its data is produced later by an execution
// thread evaluating the producing transaction (Section 3.3.1). The ready
// flag is the "has the data been produced yet" signal execution threads
// block on — the one place in Bohm where writes may block reads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/macros.h"
#include "txn/key.h"

namespace bohm {

class BohmTxn;

/// Timestamp of versions loaded before the engine starts.
inline constexpr uint64_t kLoadTs = 0;
/// "End timestamp = infinity" for the newest version of a record.
inline constexpr uint64_t kInfinityTs = UINT64_MAX;

/// Version state bits (in `flags`).
inline constexpr uint32_t kVersionReady = 1u << 0;
/// The record logically does not exist at this version (deleted record, or
/// an aborted insert whose placeholder must behave as "absent").
inline constexpr uint32_t kVersionTombstone = 1u << 1;

struct Version {
  /// Timestamp of the transaction that created this version. Immutable
  /// after the version is published by its CC thread.
  uint64_t begin_ts = kLoadTs;
  /// Timestamp of the transaction that superseded this version;
  /// kInfinityTs while this is the newest version. Written only by the one
  /// CC thread that owns the record's partition.
  std::atomic<uint64_t> end_ts{kInfinityTs};
  /// kVersionReady once the data has been produced (plus kVersionTombstone
  /// when the record is absent at this version).
  std::atomic<uint32_t> flags{0};
  /// Table the version belongs to; selects the allocator size class.
  TableId table = 0;
  /// The transaction that must be evaluated to obtain the data
  /// (Figure 3's "Txn Pointer"); nullptr for loaded versions.
  BohmTxn* producer = nullptr;
  /// The version this one superseded (Figure 3's "Prev Pointer").
  Version* prev = nullptr;

  /// Payload bytes follow the struct.
  void* data() { return this + 1; }
  const void* data() const { return this + 1; }

  bool ready() const {
    return (flags.load(std::memory_order_acquire) & kVersionReady) != 0;
  }
  bool tombstone() const {
    return (flags.load(std::memory_order_acquire) & kVersionTombstone) != 0;
  }
};

/// Thread-local version allocator with one free list per table (versions
/// are fixed-size per table). The GC (Section 3.3.2) recycles versions
/// through these free lists, so steady-state version turnover performs no
/// malloc/free and no cross-thread memory traffic: a CC thread frees what
/// it retires into its own allocator and reuses it from there. A version
/// need not come back to the allocator that made it — after a partition
/// migration the retiring thread keeps the old owner's version — because
/// free lists are per table and arena memory lives as long as the engine.
class VersionAllocator {
 public:
  VersionAllocator() = default;
  BOHM_DISALLOW_COPY_AND_ASSIGN(VersionAllocator);

  /// Allocates a version with `record_size` payload bytes for `table`.
  Version* Alloc(TableId table, uint32_t record_size);

  /// Returns a version of any allocator to this allocator's per-table
  /// free list. Only the thread that owns this allocator may call it.
  void Free(Version* v);

  /// Number of versions currently parked on free lists (test hook).
  size_t FreeCount() const;
  size_t allocated_bytes() const { return arena_.allocated_bytes(); }

 private:
  Arena arena_;
  std::vector<std::vector<Version*>> free_lists_;  // indexed by table id
};

}  // namespace bohm
