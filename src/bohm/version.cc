#include "bohm/version.h"

namespace bohm {

Version* VersionAllocator::Alloc(TableId table, uint32_t record_size) {
  if (table < free_lists_.size() && !free_lists_[table].empty()) {
    Version* v = free_lists_[table].back();
    free_lists_[table].pop_back();
    // Re-initialize in place; payload is overwritten by the executor.
    // relaxed: the version is private to this CC thread until it is
    // release-published into the index (GetOrInsert / head store), which
    // orders these initializing stores for readers.
    v->begin_ts = kLoadTs;
    v->end_ts.store(kInfinityTs, std::memory_order_relaxed);
    v->flags.store(0, std::memory_order_relaxed);
    v->producer = nullptr;
    v->prev = nullptr;
    v->table = table;
    return v;
  }
  void* mem = arena_.Allocate(sizeof(Version) + record_size, alignof(Version));
  Version* v = new (mem) Version();
  v->table = table;
  return v;
}

void VersionAllocator::Free(Version* v) {
  if (free_lists_.size() <= v->table) free_lists_.resize(v->table + 1);
  free_lists_[v->table].push_back(v);
}

size_t VersionAllocator::FreeCount() const {
  size_t n = 0;
  for (const auto& l : free_lists_) n += l.size();
  return n;
}

}  // namespace bohm
