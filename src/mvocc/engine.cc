#include "mvocc/engine.h"

#include <cassert>
#include <cstring>

#include "common/spin.h"

namespace bohm {

namespace {

/// Largest record size in the catalog (sizes the per-thread scratch
/// buffer handed to procedures after an internal abort).
uint32_t MaxRecordSize(const Catalog& catalog) {
  uint32_t m = 8;
  for (const auto& t : catalog.tables()) {
    if (t.record_size > m) m = t.record_size;
  }
  return m;
}

}  // namespace

/// TxnOps implementation for the Hekaton/SI engines. A write-write
/// conflict discovered mid-run flips the ops into "doomed" mode: the
/// procedure keeps running against scratch memory until it returns, after
/// which the engine aborts and retries. (Procedures that poll aborted()
/// return early instead.)
class MVOps final : public TxnOps {
 public:
  MVOps(MVOccEngine* engine, MVTxn* txn, MVOccEngine::ThreadCtx* ctx,
        ThreadStats* stats)
      : engine_(engine), txn_(txn), ctx_(ctx), stats_(stats) {}

  const void* Read(TableId table, Key key) override {
    stats_->reads.Inc();
    if (doomed_) return ctx_->scratch.get();
    MVTable* t = engine_->db_.table(table);
    MVRecordSlot* slot = t == nullptr ? nullptr : t->Slot(key);
    if (slot == nullptr) return nullptr;
    MVVersion* v = engine_->VisibleVersion(slot, txn_);
    if (v == nullptr) return nullptr;
    // Track foreign reads for Hekaton validation; reads of this
    // transaction's own writes are trivially stable.
    uint64_t vb = v->begin.load(std::memory_order_acquire);
    if (engine_->cfg_.mode == MVOccMode::kHekaton &&
        !(MVIsTxn(vb) && MVTxnPtr(vb) == txn_)) {
      txn_->read_set.push_back({v});
    }
    return v->data();
  }

  void* Write(TableId table, Key key) override {
    stats_->writes.Inc();
    if (doomed_) return ctx_->scratch.get();
    MVTable* t = engine_->db_.table(table);
    MVRecordSlot* slot = t == nullptr ? nullptr : t->Slot(key);
    assert(slot != nullptr && "write to unknown record");
    if (slot == nullptr) {
      doomed_ = true;
      return ctx_->scratch.get();
    }
    MVVersion* nv = engine_->InstallWrite(slot, txn_, table, *ctx_);
    if (nv == nullptr) {
      doomed_ = true;  // write-write conflict: abort + retry after Run
      return ctx_->scratch.get();
    }
    return nv->data();
  }

  void Abort() override { logic_abort_ = true; }
  bool aborted() const override { return logic_abort_ || doomed_; }

  bool doomed() const { return doomed_; }
  bool logic_abort() const { return logic_abort_; }

 private:
  MVOccEngine* engine_;
  MVTxn* txn_;
  MVOccEngine::ThreadCtx* ctx_;
  ThreadStats* stats_;
  bool doomed_ = false;
  bool logic_abort_ = false;
};

MVOccEngine::MVOccEngine(const Catalog& catalog, MVOccConfig cfg)
    : catalog_(catalog),
      cfg_([&] {
        if (cfg.threads == 0) cfg.threads = 1;
        return cfg;
      }()),
      db_(catalog_),
      stats_(cfg_.threads) {
  record_sizes_.resize(catalog_.MaxTableId(), 0);
  for (const TableSpec& t : catalog_.tables()) {
    record_sizes_[t.id] = t.record_size;
  }
  const uint32_t scratch = MaxRecordSize(catalog_);
  for (uint32_t i = 0; i < cfg_.threads; ++i) {
    ctx_.push_back(std::make_unique<ThreadCtx>());
    ctx_.back()->scratch = std::make_unique<char[]>(scratch);
  }
}

MVOccEngine::~MVOccEngine() = default;

MVVersion* MVOccEngine::AllocVersion(ThreadCtx& ctx, TableId table) {
  void* mem = ctx.version_arena.Allocate(
      sizeof(MVVersion) + record_sizes_[table], alignof(MVVersion));
  return new (mem) MVVersion();
}

Status MVOccEngine::Load(TableId table, Key key, const void* payload) {
  MVTable* t = db_.table(table);
  if (t == nullptr) return Status::NotFound("no such table");
  MVRecordSlot* slot = t->Slot(key);
  if (slot == nullptr) {
    return Status::InvalidArgument("key outside dense capacity");
  }
  // relaxed: Load runs single-threaded before workers start; no
  // concurrent access exists yet and the head release below publishes.
  if (slot->head.load(std::memory_order_relaxed) != nullptr) {
    return Status::InvalidArgument("duplicate key in load");
  }
  MVVersion* v = AllocVersion(*ctx_[0], table);
  if (payload != nullptr) {
    std::memcpy(v->data(), payload, record_sizes_[table]);
  } else {
    std::memset(v->data(), 0, record_sizes_[table]);
  }
  // relaxed: the version is still private; the slot->head release store
  // below is the publication point that orders these initializers.
  v->begin.store(0, std::memory_order_relaxed);
  v->end.store(kMVInfinity, std::memory_order_relaxed);
  slot->head.store(v, std::memory_order_release);
  return Status::OK();
}

MVTxn* MVOccEngine::BeginTxn(ThreadCtx& ctx) {
  ctx.graveyard.push_back(std::make_unique<MVTxn>());
  MVTxn* txn = ctx.graveyard.back().get();
  txn->begin_ts = clock_.fetch_add(1, std::memory_order_acq_rel);
  return txn;
}

MVVersion* MVOccEngine::VisibleVersion(MVRecordSlot* slot, MVTxn* txn) {
  const uint64_t B = txn->begin_ts;
  for (MVVersion* v = slot->head.load(std::memory_order_acquire);
       v != nullptr; v = v->next) {
    // --- Begin-field test: when was this version born? ---
    uint64_t vb = v->begin.load(std::memory_order_acquire);
    uint64_t effective_begin = kMVAbortedBegin;
    if (MVIsTxn(vb)) {
      MVTxn* tb = MVTxnPtr(vb);
      if (tb == txn) return v;  // own write: newest, end == infinity
      switch (tb->State()) {
        case MVTxnState::kCommitted:
          effective_begin = tb->EndTs();
          break;
        case MVTxnState::kPreparing: {
          const uint64_t tb_end = tb->EndTs();
          if (tb_end > B) continue;  // born after our snapshot either way
          // Visible exactly if tb commits. Speculatively read it under a
          // commit dependency (if tb later aborts, so do we); without
          // one, or when tb finished meanwhile, wait for the outcome.
          // Skipping to the older version instead would let a later
          // write of ours overwrite tb's committed one unseen.
          if (cfg_.commit_dependencies && tb->TryRegisterDependent(txn)) {
            effective_begin = tb_end;
            break;
          }
          if (tb->AwaitOutcome() != MVTxnState::kCommitted) continue;
          effective_begin = tb_end;
          break;
        }
        case MVTxnState::kActive:
        case MVTxnState::kAborted:
          continue;
      }
    } else {
      if (vb == kMVAbortedBegin) continue;
      effective_begin = vb;
    }
    if (effective_begin > B) continue;

    // --- End-field test: had it been superseded as of B? ---
    uint64_t ve = v->end.load(std::memory_order_acquire);
    if (MVIsTxn(ve)) {
      MVTxn* te = MVTxnPtr(ve);
      if (te == txn) continue;  // we superseded it; our new version wins
      switch (te->State()) {
        case MVTxnState::kCommitted:
          if (te->EndTs() <= B) continue;
          return v;
        case MVTxnState::kPreparing: {
          if (te->EndTs() > B) return v;  // visible whether te commits or not
          // te would invalidate this version before our snapshot; assume
          // it commits (dependency), so the version is invisible. Without
          // a dependency, or when te finished meanwhile, wait for it.
          if (cfg_.commit_dependencies && te->TryRegisterDependent(txn)) {
            continue;
          }
          if (te->AwaitOutcome() == MVTxnState::kCommitted) continue;
          return v;
        }
        case MVTxnState::kActive:
        case MVTxnState::kAborted:
          return v;  // in-flight or failed overwrite: still visible
      }
    }
    if (ve > B) return v;
    // Superseded before our snapshot; keep walking (can happen when the
    // newer version was skipped as an uncommitted/aborted install).
  }
  return nullptr;
}

MVVersion* MVOccEngine::InstallWrite(MVRecordSlot* slot, MVTxn* txn,
                                     TableId table, ThreadCtx& ctx) {
  MVVersion* head = slot->head.load(std::memory_order_acquire);

  // Find the newest non-aborted version; that is the one whose End field
  // arbitrates write-write conflicts.
  MVVersion* v = head;
  while (v != nullptr) {
    uint64_t vb = v->begin.load(std::memory_order_acquire);
    if (MVIsTxn(vb)) {
      MVTxn* tb = MVTxnPtr(vb);
      if (tb->State() == MVTxnState::kAborted) {
        v = v->next;
        continue;
      }
      // Uncommitted (Active/Preparing) newest version owned by another
      // transaction: first-updater-wins says we lose. (Our own write to
      // the same record twice is excluded by read/write-set validation.)
      if (tb != txn && tb->State() != MVTxnState::kCommitted) return nullptr;
      if (tb == txn) return nullptr;  // duplicate write (programmer error)
    } else if (vb == kMVAbortedBegin) {
      v = v->next;
      continue;
    }
    break;
  }

  if (v != nullptr) {
    // The newest live version must already be visible to us; a version
    // committed after our begin timestamp is a write-write conflict with a
    // committed concurrent transaction (first-committer-wins).
    uint64_t vb = v->begin.load(std::memory_order_acquire);
    uint64_t effective_begin = MVIsTxn(vb) ? MVTxnPtr(vb)->EndTs() : vb;
    if (effective_begin > txn->begin_ts) return nullptr;
    uint64_t expected = kMVInfinity;
    if (!v->end.compare_exchange_strong(expected, MVTagTxn(txn),
                                        std::memory_order_acq_rel)) {
      return nullptr;  // another writer tagged it first
    }
  }

  MVVersion* nv = AllocVersion(ctx, table);
  nv->begin.store(MVTagTxn(txn), std::memory_order_release);
  // relaxed: nv is thread-private until the head CAS below publishes it
  // (acq_rel), which orders this initializing store for readers.
  nv->end.store(kMVInfinity, std::memory_order_relaxed);
  nv->next = head;
  if (!slot->head.compare_exchange_strong(head, nv,
                                          std::memory_order_acq_rel)) {
    // Extremely rare: our head snapshot went stale between the End tag and
    // the push (e.g. an aborted installer re-pushed). Release the tag and
    // report a conflict; the transaction retries.
    if (v != nullptr) {
      v->end.store(kMVInfinity, std::memory_order_release);
    }
    return nullptr;
  }
  txn->write_set.push_back({slot, nv, v});
  return nv;
}

bool MVOccEngine::ValidateReads(MVTxn* txn) {
  const uint64_t E = txn->end_ts.load(std::memory_order_acquire);
  for (const MVTxn::ReadEntry& entry : txn->read_set) {
    MVVersion* v = entry.version;
    uint64_t ve = v->end.load(std::memory_order_acquire);
    if (MVIsTxn(ve)) {
      MVTxn* te = MVTxnPtr(ve);
      if (te == txn) continue;  // our own RMW of the version we read
      switch (te->State()) {
        case MVTxnState::kActive:
          continue;  // te's end timestamp will exceed ours
        case MVTxnState::kAborted:
          continue;
        case MVTxnState::kPreparing:
        case MVTxnState::kCommitted:
          if (te->EndTs() > E) continue;
          return false;  // superseded within our lifetime: not repeatable
      }
    } else if (ve <= E) {
      return false;
    }
  }
  return true;
}

bool MVOccEngine::WaitForDependencies(MVTxn* txn) {
  SpinWait wait;
  while (txn->dep_count.load(std::memory_order_acquire) > 0) wait.Pause();
  return !txn->dep_failed.load(std::memory_order_acquire);
}

void MVOccEngine::UndoWrites(MVTxn* txn) {
  for (const MVTxn::WriteEntry& w : txn->write_set) {
    // Hide the installed version forever; readers skip aborted begins.
    w.installed->begin.store(kMVAbortedBegin, std::memory_order_release);
    if (w.replaced != nullptr) {
      w.replaced->end.store(kMVInfinity, std::memory_order_release);
    }
  }
}

void MVOccEngine::Postprocess(MVTxn* txn) {
  const uint64_t E = txn->end_ts.load(std::memory_order_acquire);
  for (const MVTxn::WriteEntry& w : txn->write_set) {
    w.installed->begin.store(E, std::memory_order_release);
    if (w.replaced != nullptr) {
      w.replaced->end.store(E, std::memory_order_release);
    }
  }
}

Status MVOccEngine::Execute(StoredProcedure& proc, uint32_t thread_id) {
  if (thread_id >= cfg_.threads) {
    return Status::InvalidArgument("bad thread id");
  }
  const uint64_t start_ns = MonotonicNanos();
  ThreadCtx& ctx = *ctx_[thread_id];
  ThreadStats& st = stats_.Slice(thread_id);

  for (;;) {
    MVTxn* txn = BeginTxn(ctx);
    MVOps ops(this, txn, &ctx, &st);
    proc.Run(ops);

    if (ops.doomed()) {
      txn->FinishAndResolveDependents(MVTxnState::kAborted);
      UndoWrites(txn);
      st.cc_aborts.Inc();
      st.retries.Inc();
      continue;  // paper: optimistic baselines retry cc-induced aborts
    }
    if (ops.logic_abort()) {
      txn->FinishAndResolveDependents(MVTxnState::kAborted);
      UndoWrites(txn);
      st.logic_aborts.Inc();
      return Status::Aborted("transaction logic aborted");
    }

    // Precommit: enter Preparing, then acquire the end timestamp (second
    // global-counter increment). In this order every transaction whose
    // begin timestamp is issued after ours sees us at least Preparing
    // (the clock's acq_rel increments carry the state store). The
    // reverse order leaves a window in which such a reader sees us
    // Active, skips our version and reads the older one, and then
    // overwrites our committed version (first-committer-wins accepts it,
    // because our end timestamp precedes its begin): a lost update.
    txn->state.store(static_cast<uint32_t>(MVTxnState::kPreparing),
                     std::memory_order_release);
    txn->end_ts.store(clock_.fetch_add(1, std::memory_order_acq_rel),
                      std::memory_order_release);

    bool ok = cfg_.mode == MVOccMode::kHekaton ? ValidateReads(txn) : true;
    if (ok) ok = WaitForDependencies(txn);

    if (!ok) {
      txn->FinishAndResolveDependents(MVTxnState::kAborted);
      UndoWrites(txn);
      st.cc_aborts.Inc();
      st.retries.Inc();
      continue;
    }

    Postprocess(txn);
    txn->FinishAndResolveDependents(MVTxnState::kCommitted);
    RecordCommit(st, start_ns);
    return Status::OK();
  }
}

Status MVOccEngine::ReadLatest(TableId table, Key key, void* out) const {
  MVTable* t = db_.table(table);
  MVRecordSlot* slot = t == nullptr ? nullptr : t->Slot(key);
  if (slot == nullptr) return Status::NotFound("no such record");
  for (MVVersion* v = slot->head.load(std::memory_order_acquire);
       v != nullptr; v = v->next) {
    uint64_t vb = v->begin.load(std::memory_order_acquire);
    if (MVIsTxn(vb) || vb == kMVAbortedBegin) continue;
    std::memcpy(out, v->data(), record_sizes_[table]);
    return Status::OK();
  }
  return Status::NotFound("no committed version");
}

}  // namespace bohm
