// Single-version optimistic concurrency control, "a direct implementation
// of Silo" (Tu et al. [35]) as the paper's OCC baseline (Section 4):
//
//  * Each record carries a TID word (lock bit | epoch | sequence). Reads
//    are seqlock-style: read TID, copy payload, re-read TID; retry on
//    change. Reads perform no shared-memory writes.
//  * Writes are buffered thread-locally during execution (the paper notes
//    this buffer is reused across transactions by the same thread, giving
//    better locality than multi-version allocation).
//  * Commit: lock the write set in a global order, validate the read set
//    (TIDs unchanged and not locked by others), install writes with a new
//    TID greater than all observed TIDs in the current epoch.
//  * Decentralized timestamps: no global counter anywhere on the commit
//    path; a background thread advances the epoch periodically.
//  * Contention back-off: after an abort the thread backs off
//    exponentially — the behaviour the paper credits for OCC's resilience
//    under high contention relative to Hekaton/SI (Section 4.2.1).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/stable_buffer.h"
#include "common/stats.h"
#include "storage/sv_table.h"
#include "txn/engine_iface.h"

namespace bohm {

struct SiloConfig {
  uint32_t threads = 1;
  /// Epoch advance period in microseconds (Silo uses 40 ms; we default
  /// lower so short benchmark runs span several epochs).
  uint32_t epoch_period_us = 10000;
};

class SiloEngine final : public ExecutorEngine {
 public:
  SiloEngine(const Catalog& catalog, SiloConfig cfg);
  ~SiloEngine() override;
  BOHM_DISALLOW_COPY_AND_ASSIGN(SiloEngine);

  /// Inserts an initial record. Single-threaded, before first Execute.
  Status Load(TableId table, Key key, const void* payload) override;

  Status Execute(StoredProcedure& proc, uint32_t thread_id) override;
  uint32_t worker_threads() const override { return cfg_.threads; }
  StatsSnapshot Stats() const override { return stats_.Fold(); }
  const char* name() const override { return "OCC"; }

  /// Non-transactional read of the current value (quiescent helper).
  Status ReadLatest(TableId table, Key key, void* out) const;

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // TID word layout (public for tests).
  static constexpr uint64_t kLockBit = 1ull;
  static constexpr uint32_t kEpochShift = 40;
  static constexpr uint64_t kSeqMask = ((1ull << kEpochShift) - 1) & ~kLockBit;
  static uint64_t TidEpoch(uint64_t tid) { return tid >> kEpochShift; }

 private:
  friend class SiloOps;

  struct ReadEntry {
    SVSlot* slot;
    uint64_t tid;  // TID observed at read time (lock bit clear)
  };
  struct WriteEntry {
    SVSlot* slot;
    void* buf;  // into ThreadCtx::write_buffer (stable)
    uint32_t size;
    bool locked;
  };
  struct alignas(kCacheLineSize) ThreadCtx {
    std::vector<ReadEntry> read_set;
    std::vector<WriteEntry> write_set;
    /// Reused local write buffer ("the same local write buffer can be
    /// re-used by a single execution thread across many different
    /// transactions", Section 4.2.1). Chunked: pointers handed to Run()
    /// stay valid while later accesses append.
    StableBuffer write_buffer;
    StableBuffer read_buffer;  // stable copies handed to Run()
    uint64_t last_tid = 0;
    uint32_t consecutive_aborts = 0;
  };

  /// Stable seqlock read of a slot; returns the observed TID.
  uint64_t StableRead(SVSlot* slot, void* out, uint32_t size) const;
  bool CommitAttempt(ThreadCtx& ctx);
  void Backoff(ThreadCtx& ctx);
  void EpochLoop();

  Catalog catalog_;
  SiloConfig cfg_;
  SVDatabase db_;
  std::vector<uint32_t> record_sizes_;
  std::vector<std::unique_ptr<ThreadCtx>> ctx_;
  StatsRegistry stats_;

  alignas(kCacheLineSize) std::atomic<uint64_t> epoch_{1};
  std::atomic<bool> stop_epoch_{false};
  std::thread epoch_thread_;
};

}  // namespace bohm
