#include "twopl/engine.h"

#include <cassert>
#include <cstring>

namespace bohm {

namespace {

uint64_t TotalCapacity(const Catalog& catalog) {
  uint64_t n = 0;
  for (const auto& t : catalog.tables()) n += t.capacity;
  return n;
}

}  // namespace

/// TxnOps for 2PL: direct in-place access to single-version storage under
/// the locks acquired before Run(). The first write to each record saves
/// an undo image so that a logic abort can roll back.
class TwoPLOps final : public TxnOps {
 public:
  TwoPLOps(TwoPLEngine* engine, TwoPLEngine::ThreadCtx* ctx,
           ThreadStats* stats)
      : engine_(engine), ctx_(ctx), stats_(stats) {}

  const void* Read(TableId table, Key key) override {
    stats_->reads.Inc();
    SVTable* t = engine_->db_.table(table);
    SVSlot* slot = t == nullptr ? nullptr : t->Lookup(key);
    return slot == nullptr ? nullptr : slot->payload();
  }

  void* Write(TableId table, Key key) override {
    stats_->writes.Inc();
    SVTable* t = engine_->db_.table(table);
    SVSlot* slot = t == nullptr ? nullptr : t->Lookup(key);
    assert(slot != nullptr && "2PL requires pre-loaded records");
    if (slot == nullptr) return nullptr;
    const uint32_t size = engine_->record_sizes_[table];
    // Save an undo image once per record per transaction.
    bool seen = false;
    for (const auto& u : ctx_->undo) {
      if (u.slot == slot) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      void* saved = ctx_->undo_buffer.Allocate(size);
      // plain-copy: the growing phase took this record's lock exclusively
      // before Run(), so no other thread can touch the payload.
      std::memcpy(saved, slot->payload(), size);
      ctx_->undo.push_back({slot, saved, size});
    }
    return slot->payload();
  }

  void Abort() override { aborted_ = true; }
  bool aborted() const override { return aborted_; }

 private:
  TwoPLEngine* engine_;
  TwoPLEngine::ThreadCtx* ctx_;
  ThreadStats* stats_;
  bool aborted_ = false;
};

TwoPLEngine::TwoPLEngine(const Catalog& catalog, TwoPLConfig cfg)
    : catalog_(catalog),
      cfg_([&] {
        if (cfg.threads == 0) cfg.threads = 1;
        return cfg;
      }()),
      db_(catalog_),
      locks_(TotalCapacity(catalog_)),
      stats_(cfg_.threads) {
  record_sizes_.resize(catalog_.MaxTableId(), 0);
  for (const TableSpec& t : catalog_.tables()) {
    record_sizes_[t.id] = t.record_size;
  }
  for (uint32_t i = 0; i < cfg_.threads; ++i) {
    ctx_.push_back(std::make_unique<ThreadCtx>());
  }
}

Status TwoPLEngine::Load(TableId table, Key key, const void* payload) {
  SVTable* t = db_.table(table);
  if (t == nullptr) return Status::NotFound("no such table");
  BOHM_RETURN_NOT_OK(t->Insert(key, payload));
  // "No lock table entry allocations" during transactions: create the
  // entry now.
  locks_.Preallocate(RecordId{table, key});
  return Status::OK();
}

// The whole point of 2PL is a dynamically-scoped lock set: locks acquired
// entry-by-entry in the growing phase and released after Run(). Clang's
// static analysis cannot track capabilities held in a runtime container,
// so this one protocol function opts out; its discipline (lexicographic
// acquisition order, full release in the shrinking phase) is exercised by
// twopl_test and the TSan suite instead.
Status TwoPLEngine::Execute(StoredProcedure& proc,
                            uint32_t thread_id) BOHM_NO_THREAD_SAFETY_ANALYSIS {
  if (thread_id >= cfg_.threads) {
    return Status::InvalidArgument("bad thread id");
  }
  const uint64_t start_ns = MonotonicNanos();
  ThreadCtx& ctx = *ctx_[thread_id];
  ThreadStats& st = stats_.Slice(thread_id);
  ctx.held.clear();
  ctx.undo.clear();
  ctx.undo_buffer.Reset();

  // Growing phase: acquire every lock in lexicographic (table, key)
  // order; an RMW record is acquired exclusively once.
  for (const auto& [rec, mode] : proc.rwset().LockOrder()) {
    LockEntry* e = locks_.GetOrCreate(rec);
    if (mode == AccessMode::kWrite) {
      e->lock.LockExclusive();
      ctx.held.push_back({e, true});
    } else {
      e->lock.LockShared();
      ctx.held.push_back({e, false});
    }
  }

  TwoPLOps ops(this, &ctx, &st);
  proc.Run(ops);

  const bool aborted = ops.aborted();
  if (aborted) {
    // Roll back in-place writes (reverse order; last image per record was
    // saved first, so forward order would also be correct — reverse is
    // belt and braces).
    for (auto it = ctx.undo.rbegin(); it != ctx.undo.rend(); ++it) {
      // plain-copy: still inside the growing-phase lock scope — the
      // exclusive record lock is released only in the shrinking phase.
      std::memcpy(it->slot->payload(), it->saved, it->size);
    }
  }

  // Shrinking phase.
  for (const Acquired& a : ctx.held) {
    if (a.exclusive) {
      a.entry->lock.UnlockExclusive();
    } else {
      a.entry->lock.UnlockShared();
    }
  }

  if (aborted) {
    st.logic_aborts.Inc();
    return Status::Aborted("transaction logic aborted");
  }
  RecordCommit(st, start_ns);
  return Status::OK();
}

Status TwoPLEngine::ReadLatest(TableId table, Key key, void* out) const {
  SVTable* t = db_.table(table);
  SVSlot* slot = t == nullptr ? nullptr : t->Lookup(key);
  if (slot == nullptr) return Status::NotFound("no such record");
  // plain-copy: quiescent-only test/report helper (see header contract);
  // no transaction is running, so nothing else touches the payload.
  std::memcpy(out, slot->payload(), record_sizes_[table]);
  return Status::OK();
}

}  // namespace bohm
