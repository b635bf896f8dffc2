#include "bohm/engine.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/affinity.h"
#include "common/hash.h"
#include "common/spin.h"
#include "log/log_reader.h"

namespace bohm {

namespace {

/// Physical partitions per table. The migration knob plays no part: a
/// static run and an adaptive run share one layout and differ only in
/// whether the controller stages migrations. One CC thread gets a single
/// partition (there is nothing to migrate between); more threads get 8
/// per thread, clamped to [128, 1024], so whole partitions can move at
/// useful granularity.
uint32_t EffectivePartitions(const BohmConfig& cfg) {
  if (cfg.adaptive.partitions != 0) return cfg.adaptive.partitions;
  if (cfg.cc_threads == 1) return 1;
  const uint64_t p = NextPow2(static_cast<uint64_t>(cfg.cc_threads) * 8);
  return static_cast<uint32_t>(std::clamp<uint64_t>(p, 128, 1024));
}

}  // namespace

BohmEngine::BohmEngine(const Catalog& catalog, BohmConfig cfg)
    : catalog_(catalog),
      cfg_([&] {
        if (cfg.cc_threads == 0) cfg.cc_threads = 1;
        if (cfg.exec_threads == 0) cfg.exec_threads = 1;
        if (cfg.batch_size == 0) cfg.batch_size = 1;
        if (cfg.pipeline_depth < 1) cfg.pipeline_depth = 1;
        if (cfg.max_dependency_depth == 0) cfg.max_dependency_depth = 1;
        if (cfg.adaptive.interval_batches == 0) cfg.adaptive.interval_batches = 1;
        if (cfg.adaptive.max_imbalance < 1.0) cfg.adaptive.max_imbalance = 1.0;
        return cfg;
      }()),
      db_(catalog_, EffectivePartitions(cfg_)),
      repart_(std::make_unique<RepartitionController>(
          db_.partitions(), cfg_.cc_threads, cfg_.adaptive)),
      touch_totals_(db_.partitions(), 0),
      ring_(cfg_.pipeline_depth),
      input_(NextPow2(cfg_.input_queue_capacity < 2 ? 2
                                                    : cfg_.input_queue_capacity)),
      cc_watermark_(cfg_.cc_threads),
      exec_watermark_(cfg_.exec_threads),
      exec_pin_(cfg_.exec_threads),
      stats_(cfg_.exec_threads) {
  record_sizes_.resize(catalog_.MaxTableId(), 0);
  for (const TableSpec& t : catalog_.tables()) {
    record_sizes_[t.id] = t.record_size;
  }
  // Feed capacity >= pipeline depth guarantees SealBatch's pushes succeed
  // (see the member comment in engine.h).
  const size_t feed_capacity = NextPow2(cfg_.pipeline_depth < 2
                                            ? 2
                                            : cfg_.pipeline_depth);
  for (uint32_t i = 0; i < cfg_.cc_threads; ++i) {
    cc_state_.push_back(std::make_unique<CcState>());
    cc_state_.back()->touch =
        std::make_unique<RelaxedCounter[]>(db_.partitions());
    cc_feed_.push_back(std::make_unique<SpscQueue<int64_t>>(feed_capacity));
    cc_stall_.push_back(std::make_unique<StallSlot>());
  }
  for (uint32_t i = 0; i < cfg_.exec_threads; ++i) {
    exec_feed_.push_back(std::make_unique<SpscQueue<int64_t>>(feed_capacity));
    exec_stall_.push_back(std::make_unique<StallSlot>());
    exec_log_stall_.push_back(std::make_unique<StallSlot>());
  }
  if (cfg_.durability.enabled) {
    LogEnv* env = cfg_.durability.env != nullptr ? cfg_.durability.env
                                                 : LogEnv::Default();
    log_ = std::make_unique<BatchLog>(cfg_.durability.dir, env,
                                      cfg_.durability.segment_bytes);
    LogWriterOptions opts;
    opts.policy = cfg_.durability.fsync_policy;
    opts.group_size =
        cfg_.durability.group_size == 0 ? 1 : cfg_.durability.group_size;
    opts.interval_us = cfg_.durability.interval_us;
    log_writer_ = std::make_unique<LogWriter>(log_.get(), opts, &idle_);
  }
}

BohmEngine::~BohmEngine() { Stop(); }

Status BohmEngine::Load(TableId table, Key key, const void* payload) {
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Load after Start");
  }
  BohmTable* t = db_.table(table);
  if (t == nullptr) return Status::NotFound("no such table");
  uint32_t part = t->PartitionOf(key);
  if (t->Find(part, key) != nullptr) {
    return Status::InvalidArgument("duplicate key in load");
  }
  // Allocate from the partition's initial owner (the controller's
  // p % cc_threads rule), which spreads the loaded versions' arena memory
  // over the CC threads. Any allocator would do: a superseded version is
  // recycled by whichever thread retires it.
  const uint32_t owner = part % cfg_.cc_threads;
  Version* v = cc_state_[owner]->alloc.Alloc(table, record_sizes_[table]);
  v->begin_ts = kLoadTs;
  if (payload != nullptr) {
    std::memcpy(v->data(), payload, record_sizes_[table]);
  } else {
    std::memset(v->data(), 0, record_sizes_[table]);
  }
  // relaxed: v is thread-private until the entry publication inside
  // GetOrInsert (release) makes it — flags included — visible.
  v->flags.store(kVersionReady, std::memory_order_relaxed);
  bool inserted = false;
  (void)t->GetOrInsert(part, key, v, &inserted);
  return Status::OK();
}

Status BohmEngine::Start() {
  // The cc_interest mask on BohmTxn is 64 bits, one per CC *thread*
  // (owner bits, not partition bits — partition counts above 64 are fine
  // because the sequencer masks by owners[PartitionOf(key)]). A config
  // that would shift past the mask width is rejected instead of silently
  // computing undefined behavior; run cc_threads > 64 with
  // interest_preprocessing explicitly disabled.
  if (cfg_.interest_preprocessing && cfg_.cc_threads > 64) {
    return Status::InvalidArgument(
        "interest_preprocessing requires cc_threads <= 64 (the cc_interest "
        "mask is 64 bits wide); disable it to run more CC threads");
  }
  if (db_.partitions() < cfg_.cc_threads) {
    return Status::InvalidArgument(
        "partition count must be >= cc_threads (every CC thread needs at "
        "least one partition to own)");
  }
  if (cfg_.durability.enabled && !recovered_) {
    // A pre-existing log means there is committed history on disk.
    // Starting fresh would restart seqnos and silently fork that history;
    // the caller must either Recover() or point at a clean directory.
    LogEnv* env = cfg_.durability.env != nullptr ? cfg_.durability.env
                                                 : LogEnv::Default();
    std::vector<std::string> names;
    Status st = env->ListDir(cfg_.durability.dir, &names);
    if (st.ok()) {
      for (const std::string& name : names) {
        uint64_t first;
        if (ParseSegmentFileName(name, &first)) {
          return Status::FailedPrecondition(
              "durable log directory is not empty — call Recover() instead "
              "of Start()");
        }
      }
    } else if (!st.IsNotFound()) {
      return st;
    }
  }
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("already started");
  }
  if (log_ != nullptr) {
    Status opened = log_->Open();
    if (!opened.ok()) {
      // Roll back the CAS: no pipeline thread was spawned, so leaving
      // started_ set would let Submit() enqueue transactions nothing
      // ever dequeues (callers would then hang in WaitForIdle).
      started_.store(false, std::memory_order_release);
      return opened;
    }
    log_writer_->Start();
  }
  const bool pin =
      cfg_.pin_threads &&
      ShouldPin(1 + cfg_.cc_threads + cfg_.exec_threads);
  unsigned cpu = 0;
  // Each thread is named after its stage (bohm-seq, bohm-cc<i>,
  // bohm-exec<i>), so per-thread CPU can be read per stage.
  threads_.emplace_back([this, pin, cpu] {
    SetCurrentThreadName("bohm-seq");
    if (pin) PinCurrentThreadToCpu(cpu);
    SequencerLoop();
  });
  ++cpu;
  for (uint32_t i = 0; i < cfg_.cc_threads; ++i, ++cpu) {
    threads_.emplace_back([this, i, pin, cpu] {
      SetCurrentThreadName("bohm-cc" + std::to_string(i));
      if (pin) PinCurrentThreadToCpu(cpu);
      CcLoop(i);
    });
  }
  for (uint32_t i = 0; i < cfg_.exec_threads; ++i, ++cpu) {
    threads_.emplace_back([this, i, pin, cpu] {
      SetCurrentThreadName("bohm-exec" + std::to_string(i));
      if (pin) PinCurrentThreadToCpu(cpu);
      ExecLoop(i);
    });
  }
  return Status::OK();
}

void BohmEngine::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Another caller is already stopping; wait for the joins to finish.
    idle_.Await([this] { return stopped_.load(std::memory_order_acquire); });
    return;
  }
  idle_.Notify();  // an idle sequencer parks until stopping_ is set
  for (auto& t : threads_) t.join();
  threads_.clear();
  // The sequencer (the writer's only producer) has joined, so the ring
  // receives nothing more: Stop drains what is enqueued, issues the final
  // sync, and closes the segment — a clean shutdown leaves a fully
  // durable log even with unflushed group-commit buffers.
  if (log_writer_ != nullptr) log_writer_->Stop();
  stopped_.store(true, std::memory_order_release);
  idle_.Notify();
}

// Graceful rejection, never a crash: a transaction the engine cannot take
// (wrong engine state, degraded log, un-replayable or malformed footprint)
// comes back as kRejected and the pipeline is untouched. The sequencer can
// then assume every dequeued transaction is well-formed — the bad-table
// check here is what keeps a stray table id from dereferencing a null
// BohmTable inside the pipeline.
Status BohmEngine::CheckSubmit(const StoredProcedure* proc) const {
  if (!started_.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    return Status::Rejected("engine not running");
  }
  if (log_degraded()) {
    return Status::Rejected("durable log failed; engine is degraded");
  }
  if (proc == nullptr) return Status::InvalidArgument("null procedure");
  if (cfg_.durability.enabled && proc->codec_id() == kNotLoggable) {
    // Read-only procedures are admitted but simply absent from the log
    // (skipping them on replay cannot change state); anything that writes
    // must be reproducible from bytes.
    if (!proc->rwset().writes().empty()) {
      return Status::Rejected(
          "procedure writes but has no log codec; a durable engine cannot "
          "accept transactions it could not replay");
    }
  }
  const ReadWriteSet& set = proc->rwset();
  auto known_table = [this](TableId t) {
    return static_cast<size_t>(t) < record_sizes_.size() &&
           record_sizes_[t] != 0;
  };
  for (const RecordId& rec : set.writes()) {
    if (!known_table(rec.table)) {
      return Status::Rejected("write-set references unknown table");
    }
  }
  for (const RecordId& rec : set.reads()) {
    if (!known_table(rec.table)) {
      return Status::Rejected("read-set references unknown table");
    }
  }
  // Duplicate write-set keys would give one transaction two placeholder
  // versions of the same record. Quadratic scan, so only for footprints
  // small enough that it stays cheap (covers every realistic OLTP txn;
  // the paper's workloads have <= 10 writes).
  const auto& writes = set.writes();
  if (writes.size() <= 64) {
    for (size_t i = 0; i < writes.size(); ++i) {
      for (size_t j = i + 1; j < writes.size(); ++j) {
        if (writes[i].table == writes[j].table &&
            writes[i].key == writes[j].key) {
          return Status::Rejected("duplicate key in write set");
        }
      }
    }
  }
  return Status::OK();
}

Status BohmEngine::Submit(ProcedurePtr proc) {
  BOHM_RETURN_NOT_OK(CheckSubmit(proc.get()));
  Enqueue(InputItem{proc.release(), /*owned=*/true, MonotonicNanos()});
  return Status::OK();
}

Status BohmEngine::SubmitBorrowed(StoredProcedure* proc) {
  BOHM_RETURN_NOT_OK(CheckSubmit(proc));
  Enqueue(InputItem{proc, /*owned=*/false, MonotonicNanos()});
  return Status::OK();
}

// A full input queue is back-pressure: the sequencer drains it only as
// batch slots free up behind execution, so the client parks through it
// (rule R9). Every pop precedes a SealBatch, which notifies idle_.
void BohmEngine::Enqueue(InputItem item) {
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  while (!input_.TryPush(item)) {
    idle_.Await([this] { return !input_.Full(); });
  }
  idle_.Notify();
}

Status BohmEngine::RunSync(ProcedurePtr proc) {
  BOHM_RETURN_NOT_OK(Submit(std::move(proc)));
  WaitForIdle();
  return Status::OK();
}

uint64_t BohmEngine::CompletedCount() const { return stats_.FoldCompleted(); }

// Every completion happens before the exec watermark advance of its
// batch, which notifies idle_.
void BohmEngine::WaitForIdle() {
  idle_.Await([this] {
    return CompletedCount() >= submitted_.load(std::memory_order_acquire);
  });
}

int64_t BohmEngine::Watermark() const { return exec_watermark_.Min(); }

int64_t BohmEngine::CcWatermark() const { return cc_watermark_.Min(); }

StatsSnapshot BohmEngine::Stats() const {
  StatsSnapshot s = stats_.Fold();
  s.seq_stall_ns = seq_stall_.ns.Get();
  for (const auto& st : cc_stall_) s.cc_stall_ns += st->ns.Get();
  for (const auto& st : exec_stall_) s.exec_stall_ns += st->ns.Get();
  s.log_stall_ns = seq_log_stall_.ns.Get();
  for (const auto& st : exec_log_stall_) s.log_stall_ns += st->ns.Get();
  if (log_writer_ != nullptr) {
    s.log_bytes = log_writer_->bytes_written();
    s.log_records = log_writer_->records();
    s.log_fsyncs = log_writer_->fsyncs();
  }
  s.cc_migrations = repart_->migrations();
  s.cc_imbalance_x1000 = repart_->imbalance_x1000();
  s.gc_freed = gc_freed_versions();
  return s;
}

uint64_t BohmEngine::gc_freed_versions() const {
  uint64_t n = 0;
  for (const auto& s : cc_state_) n += s->freed.Get();
  return n;
}

Status BohmEngine::Recover() {
  if (!cfg_.durability.enabled) {
    return Status::FailedPrecondition("Recover without durability enabled");
  }
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Recover after Start");
  }
  LogEnv* env = cfg_.durability.env != nullptr ? cfg_.durability.env
                                               : LogEnv::Default();
  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  BOHM_RETURN_NOT_OK(ReadBatchLog(cfg_.durability.dir, env, &batches, &scan));
  recovery_stats_ = RecoveryStats{};
  recovery_stats_.batches = scan.records;
  recovery_stats_.txns = scan.txns;
  recovery_stats_.segments = scan.segments;
  recovery_stats_.tail_truncated = scan.tail_truncated;
  recovery_stats_.truncated_bytes = scan.truncated_bytes;
  recovery_stats_.tail_detail = scan.tail_detail;
  recovery_stats_.last_seqno = batches.empty() ? 0 : batches.back().seqno;

  // Replay mode: the pipeline runs normally but nothing is re-logged and
  // execution is not gated on durability (the batches being replayed are
  // durable by definition). The release back to false below is what
  // publishes log_base_ to the pipeline threads (rule R6).
  replaying_.store(true, std::memory_order_release);
  recovered_ = true;  // lets Start() past its nonempty-directory check
  Status started = Start();
  if (!started.ok()) {
    replaying_.store(false, std::memory_order_release);
    return started;
  }
  for (ReplayedBatch& batch : batches) {
    for (ProcedurePtr& proc : batch.txns) {
      BOHM_RETURN_NOT_OK(Submit(std::move(proc)));
    }
  }
  WaitForIdle();
  batches.clear();
  // Every transaction has completed, but an exec thread whose peers ran
  // its stripe may not have passed the last replayed batch yet. Turning
  // the durable-ack gate back on before it does would gate a replayed
  // batch on a seqno that is never logged again, and that thread would
  // wait forever. Exec watermark advances notify idle_.
  const int64_t sealed = last_sealed_batch();
  idle_.Await([this, sealed] { return Watermark() >= sealed; });

  // Deterministic replay note: recovery re-*sequences* rather than
  // re-using the old batch boundaries, which is legal precisely because
  // the replay above preserved the total order — only the (seqno, batch
  // id) correspondence moved. Re-anchor it: the next sealed batch
  // (last_sealed_batch + 1) must get seqno last_seqno + 1.
  const uint64_t last_seqno = recovery_stats_.last_seqno;
  log_base_ = last_seqno + 1 - static_cast<uint64_t>(sealed + 1);
  replaying_.store(false, std::memory_order_release);
  return Status::OK();
}

Status BohmEngine::ReadLatest(TableId table, Key key, void* out) const {
  const BohmTable* t = db_.table(table);
  if (t == nullptr) return Status::NotFound("no such table");
  uint32_t part = t->PartitionOf(key);
  BohmIndexEntry* entry = t->Find(part, key);
  if (entry == nullptr) return Status::NotFound("no such record");
  Version* v = entry->head.load(std::memory_order_acquire);
  if (v == nullptr || !v->ready() || v->tombstone()) {
    return Status::NotFound("no visible version");
  }
  std::memcpy(out, v->data(), record_sizes_[table]);
  return Status::OK();
}

}  // namespace bohm
