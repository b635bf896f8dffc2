#include "bohm/table.h"

namespace bohm {

BohmTable::BohmTable(const TableSpec& spec, uint32_t partitions)
    : spec_(spec) {
  if (partitions == 0) partitions = 1;
  // Size each partition's bucket array for ~1 entry per bucket at the
  // declared capacity.
  uint64_t per_part = spec.capacity / partitions + 1;
  uint64_t buckets = NextPow2(per_part * 2);
  // Size the entry arena's blocks for the same share, within
  // [1 KiB, 64 KiB]: each partition zero-fills one block on its first
  // insert, so a full 64 KiB block per partition would dominate a small
  // table split many ways.
  const size_t arena_block = static_cast<size_t>(std::clamp<uint64_t>(
      NextPow2(per_part * sizeof(BohmIndexEntry)), 1u << 10, 1u << 16));
  parts_.reserve(partitions);
  for (uint32_t i = 0; i < partitions; ++i) {
    parts_.push_back(std::make_unique<Partition>(buckets, arena_block));
  }
}

BohmIndexEntry* BohmTable::Find(uint32_t partition, Key key) const {
  const Partition& p = *parts_[partition];
  // BucketHash, not HashKey: the partition index already consumed
  // HashKey(key) % partitions, and reusing the same hash here pins the
  // low bucket bits within a partition (see BucketHash in common/hash.h).
  uint64_t b = BucketHash(key) & p.mask;
  // acquire pairs with the release publication in GetOrInsert, so a found
  // entry is always fully initialized.
  for (BohmIndexEntry* e = p.chains[b].load(std::memory_order_acquire);
       e != nullptr; e = e->next) {
    if (e->key == key) return e;
  }
  return nullptr;
}

BohmIndexEntry* BohmTable::GetOrInsert(uint32_t partition, Key key,
                                       Version* initial_head,
                                       bool* inserted) {
  Partition& p = *parts_[partition];
  uint64_t b = BucketHash(key) & p.mask;
  // relaxed: this thread is the partition's only writer, so it always
  // sees its own latest chain head; readers get ordering from Find's
  // acquire instead.
  BohmIndexEntry* first = p.chains[b].load(std::memory_order_relaxed);
  for (BohmIndexEntry* e = first; e != nullptr; e = e->next) {
    if (e->key == key) {
      *inserted = false;
      return e;
    }
  }
  auto* e = p.arena.New<BohmIndexEntry>();
  e->key = key;
  e->next = first;
  // The version chain must be complete before the entry becomes
  // reachable: install the head pre-publication...
  // relaxed: e is still thread-private here; the chain release below
  // publishes this store together with the rest of the entry.
  e->head.store(initial_head, std::memory_order_relaxed);
  // ...then publish. The release pairs with Find's acquire, so a reader
  // that sees the entry also sees key, next, and the initialized head.
  p.chains[b].store(e, std::memory_order_release);
  ++p.count;
  *inserted = true;
  return e;
}

BohmDatabase::BohmDatabase(const Catalog& catalog, uint32_t partitions)
    : catalog_(catalog), partitions_(partitions == 0 ? 1 : partitions) {
  tables_.resize(catalog_.MaxTableId());
  for (const TableSpec& spec : catalog_.tables()) {
    tables_[spec.id] = std::make_unique<BohmTable>(spec, partitions_);
  }
}

}  // namespace bohm
