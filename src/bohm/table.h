// The Bohm versioned table: a hash index split into physical partitions
// (Section 3.2.2), each owned by one concurrency-control thread.
//
// Ownership discipline is the heart of the design: a record's index entry
// and head pointer are only ever *written* by the single CC thread that
// owns the partition the record hashes to. The hash is static; the
// partition -> thread assignment is the epoch-versioned map in
// bohm/repartition.h, and it only changes *between* batches, so within
// any batch every index mutation is uncontended by construction. Execution
// threads *read* entries concurrently ("readers need only spin on
// inconsistent or stale data", Section 3.3.1): entries are published into
// bucket chains with release stores and never removed, so a reader either
// sees a fully-initialized entry or does not see it yet.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/macros.h"
#include "bohm/version.h"
#include "storage/schema.h"

namespace bohm {

/// Index entry: one per record ever written. The head pointer tracks the
/// newest version (Figure 3's per-record chain).
struct BohmIndexEntry {
  Key key = 0;
  std::atomic<Version*> head{nullptr};
  BohmIndexEntry* next = nullptr;  // bucket chain, set before publication
};

/// One table, internally split into `partitions` independent hash indexes.
class BohmTable {
 public:
  BohmTable(const TableSpec& spec, uint32_t partitions);
  BOHM_DISALLOW_COPY_AND_ASSIGN(BohmTable);

  const TableSpec& spec() const { return spec_; }
  uint32_t partitions() const { return static_cast<uint32_t>(parts_.size()); }

  /// Physical partition of a key (static hash; the owning CC thread is
  /// the current partition map's assignment for this partition).
  uint32_t PartitionOf(Key key) const {
    return static_cast<uint32_t>(HashKey(key) % parts_.size());
  }

  /// Read-only lookup; safe from any thread concurrently with owner
  /// inserts. Returns nullptr when the record has never been written. An
  /// entry returned by Find always has a fully-initialized version chain
  /// (head != nullptr): GetOrInsert installs the first version before the
  /// release-store that publishes the entry.
  BohmIndexEntry* Find(uint32_t partition, Key key) const;

  /// Lookup-or-insert; must only be called by the owning CC thread of
  /// `partition` (or single-threaded during load). When `key` is absent a
  /// new entry is created with `initial_head` (must be non-null and fully
  /// initialized — begin_ts/producer/prev set) installed as the version
  /// chain head *before* the entry is release-published into the bucket
  /// chain, so concurrent Find()s never observe a null or partial chain.
  /// `*inserted` reports whether the entry was created; when false the
  /// caller owns linking its version behind the existing head (the
  /// passed `initial_head` is NOT installed).
  BohmIndexEntry* GetOrInsert(uint32_t partition, Key key,
                              Version* initial_head, bool* inserted);

  /// Number of entries in a partition (test hook; owner thread only).
  uint64_t EntryCount(uint32_t partition) const {
    return parts_[partition]->count;
  }

  /// Longest bucket chain in a partition (test hook; owner thread only).
  /// Regression observable for the partition/bucket hash aliasing bug:
  /// bucketing by the same hash that chose the partition left only
  /// buckets/partitions slots reachable per partition, so chains grew
  /// ~partitions times longer than the ~1-entry-per-bucket sizing
  /// intends.
  uint64_t MaxChainLength(uint32_t partition) const {
    const Partition& p = *parts_[partition];
    uint64_t longest = 0;
    for (uint64_t b = 0; b <= p.mask; ++b) {
      uint64_t len = 0;
      // relaxed: owner-thread/test-only accounting walk; entry fields
      // were published by the chain's release stores before the walk.
      for (BohmIndexEntry* e = p.chains[b].load(std::memory_order_relaxed);
           e != nullptr; e = e->next) {
        ++len;
      }
      longest = std::max(longest, len);
    }
    return longest;
  }

 private:
  struct Partition {
    Partition(uint64_t buckets, size_t arena_block)
        : mask(buckets - 1), arena(arena_block) {
      chains = std::make_unique<std::atomic<BohmIndexEntry*>[]>(buckets);
      for (uint64_t i = 0; i < buckets; ++i) {
        // relaxed: single-threaded construction; the table is published
        // to workers only after the constructor returns.
        chains[i].store(nullptr, std::memory_order_relaxed);
      }
    }
    uint64_t mask;
    std::unique_ptr<std::atomic<BohmIndexEntry*>[]> chains;
    Arena arena;        // entries; touched only by the owning CC thread
    uint64_t count = 0;
  };

  TableSpec spec_;
  std::vector<std::unique_ptr<Partition>> parts_;
};

/// All Bohm tables of a database instance.
class BohmDatabase {
 public:
  BohmDatabase(const Catalog& catalog, uint32_t partitions);
  BOHM_DISALLOW_COPY_AND_ASSIGN(BohmDatabase);

  BohmTable* table(TableId id) const {
    return id < tables_.size() ? tables_[id].get() : nullptr;
  }
  const Catalog& catalog() const { return catalog_; }
  uint32_t partitions() const { return partitions_; }

 private:
  Catalog catalog_;
  uint32_t partitions_;
  std::vector<std::unique_ptr<BohmTable>> tables_;
};

}  // namespace bohm
