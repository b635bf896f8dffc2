// bohm_perf: the benchmark that performance changes to the Bohm engine are
// judged by. README.md in this directory explains the workloads, the
// metric -> layer -> workload map, and how to read the trace.
//
// One run generates the workload's inputs from --seed (outside every timed
// interval), sets the engine up, drives it for --seconds after a short
// warm-up, drains it, checks the database state, and prints one JSON result
// line last. With --trace 1 the workload runs twice in the same process,
// untraced and then traced; the run reports the traced pass's per-layer
// metrics and, per end-to-end metric, the traced-vs-untraced difference.
//
// Every layer is timed from outside, around calls into public functions:
// BohmEngine::Load / Start / SubmitBorrowed / WaitForIdle / Stats / Recover
// / ReadLatest, EncodeTxn (log/codec.h) and ReadBatchLog (log/log_reader.h).
//
// Usage:
//   bohm_perf --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--scale full|tiny] [--expect-offset K]

#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bohm/engine.h"
#include "common/affinity.h"
#include "common/rand.h"
#include "common/spin.h"
#include "common/stats.h"
#include "log/codec.h"
#include "log/log_env.h"
#include "log/log_reader.h"
#include "workload/ycsb.h"

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define PERFBENCH_UNFIT_BUILD 1
#endif

namespace perfbench {
namespace {

using bohm::BohmConfig;
using bohm::BohmEngine;
using bohm::MonotonicNanos;
using bohm::ProcedurePtr;
using bohm::Status;
using bohm::StatsSnapshot;
using bohm::StoredProcedure;
using bohm::YcsbConfig;
using bohm::YcsbGenerator;

constexpr uint32_t kRecordSize = 1000;
constexpr uint64_t kSliceNs = 100'000'000;  // 100 ms
constexpr uint64_t kTraceEvery = 512;       // traced txns: one in 512

// ---------------------------------------------------------------------------
// Workloads and scales
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  bool open_loop;
  bool durable;
  uint64_t records;
  double theta;
  YcsbGenerator::TxnType type;
  uint32_t writes_per_txn;  // counter increments per committed txn
  double offered_tps;       // open loop only
};

const Workload kWorkloads[] = {
    {"ycsb_hot_rmw", false, false, 100'000, 0.9,
     YcsbGenerator::TxnType::k10Rmw, 10, 0},
    {"ycsb_uniform_open", true, false, 1'000'000, 0.0,
     YcsbGenerator::TxnType::k2Rmw8R, 2, 100'000},
    {"ycsb_hot_durable", false, true, 100'000, 0.9,
     YcsbGenerator::TxnType::k10Rmw, 10, 0},
};

// `tiny` shrinks everything so the self-check runs in seconds; it is never
// used for reported numbers.
struct Scale {
  uint64_t record_divisor;
  double rate_factor;
  double warmup_s;
  size_t pool;     // distinct pre-generated procedures, reused round-robin
  int setups;      // engine set-ups per pass: the measured one, then warm ones
};

const Scale kFullScale{1, 1.0, 0.5, size_t{1} << 16, 6};
const Scale kTinyScale{50, 0.2, 0.05, size_t{1} << 12, 2};

// Closed-loop latency sample capacity, per measured second (about 7x the
// throughput measured when the benchmark was defined). A window whose
// sample store fills up closes early; the window length is then shorter,
// not wrong.
constexpr double kMaxClosedTps = 3e6;

// ---------------------------------------------------------------------------
// The timed procedure wrapper
// ---------------------------------------------------------------------------

// Forwards the footprint, codec id and log encoding of the generated
// procedure, and stamps the end of Run(). Bohm re-runs a procedure only
// after a logical abort forced a back-out; the stamp is then overwritten,
// so the last run counts. The YCSB procedures never abort.
class TimedTxn final : public StoredProcedure {
 public:
  explicit TimedTxn(ProcedurePtr inner) : inner_(std::move(inner)) {
    set_ = inner_->rwset();
  }

  void Run(bohm::TxnOps& ops) override {
    inner_->Run(ops);
    done_ns_.store(MonotonicNanos(), std::memory_order_release);
  }
  uint32_t codec_id() const override { return inner_->codec_id(); }
  void EncodeArgs(std::string* out) const override {
    inner_->EncodeArgs(out);
  }

  const StoredProcedure& inner() const { return *inner_; }

  // Client side: re-arms the wrapper before it is submitted again.
  void Arm(uint64_t due) {
    due_ns = due;
    rejected = false;
    // relaxed: the input queue push inside SubmitBorrowed publishes it.
    done_ns_.store(0, std::memory_order_relaxed);
  }
  // Waits until the engine is done with this submission; returns its
  // end-of-Run() stamp.
  uint64_t AwaitDone() const {
    uint64_t t;
    while ((t = done_ns_.load(std::memory_order_acquire)) == 0) {
      bohm::CpuRelax();
    }
    return t;
  }

  // Client-owned fields of the current submission.
  uint64_t due_ns = 0;
  uint64_t submit_begin_ns = 0;
  uint64_t submit_end_ns = 0;
  bool rejected = false;

 private:
  ProcedurePtr inner_;
  std::atomic<uint64_t> done_ns_{1};
};

YcsbConfig TableConfig(const Workload& w, const Scale& scale) {
  YcsbConfig ycfg;
  ycfg.record_count = w.records / scale.record_divisor;
  ycfg.record_size = kRecordSize;
  ycfg.theta = w.theta;
  return ycfg;
}

struct Inputs {
  std::vector<std::unique_ptr<TimedTxn>> pool;
  // Open loop: arrival offsets from the start of the warm-up, ascending.
  std::vector<uint64_t> arrival_ns;
  double generate_s = 0;
};

Inputs Generate(const Workload& w, const Scale& scale, uint64_t seed,
                double seconds) {
  const uint64_t t0 = MonotonicNanos();
  Inputs in;
  YcsbGenerator gen(TableConfig(w, scale), seed);
  in.pool.reserve(scale.pool);
  for (size_t i = 0; i < scale.pool; ++i) {
    in.pool.push_back(std::make_unique<TimedTxn>(gen.Make(w.type)));
  }
  if (w.open_loop) {
    // Poisson arrivals: exponential gaps at the offered rate.
    const double rate = w.offered_tps * scale.rate_factor;
    const double horizon_ns = (scale.warmup_s + seconds) * 1e9;
    bohm::Rng rng(seed ^ 0x5deece66dull);
    double t = 0;
    for (;;) {
      t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
      if (t >= horizon_ns) break;
      in.arrival_ns.push_back(static_cast<uint64_t>(t));
    }
  }
  in.generate_s = static_cast<double>(MonotonicNanos() - t0) * 1e-9;
  return in;
}

// ---------------------------------------------------------------------------
// Process measurements
// ---------------------------------------------------------------------------

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of `v` (reordered in place).
template <typename T>
T Percentile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

// The client thread runs on the CPU after the engine's pinned threads from
// just before Start() until the drain, and on the process's original CPU
// set otherwise. The log writer, which Start() spawns from the client
// thread, inherits that one-CPU mask: it shares the client's CPU, where the
// closed-loop client yields whenever the input queue is full, instead of
// landing behind a pinned engine thread that spins without yielding.
class ClientAffinity {
 public:
  ClientAffinity() { sched_getaffinity(0, sizeof(original_), &original_); }
  void PinTo(unsigned cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pinned_ = CPU_ISSET(cpu, &original_) &&
              sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  void Release() { sched_setaffinity(0, sizeof(original_), &original_); }
  int allowed() const { return CPU_COUNT(&original_); }
  bool pinned() const { return pinned_; }  // as of the last PinTo()

 private:
  cpu_set_t original_{};
  bool pinned_ = false;
};

// ---------------------------------------------------------------------------
// Trace recording (Chrome trace-event JSON, kept in memory until the end)
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(uint64_t origin_ns) : origin_(origin_ns) {}

  void Span(const char* name, uint64_t begin_ns, uint64_t end_ns) {
    spans_.push_back({name, begin_ns, end_ns});
  }
  void Txn(uint64_t id, const TimedTxn& t, uint64_t done_ns) {
    txns_.push_back({id, t.due_ns, t.submit_begin_ns, t.submit_end_ns,
                     done_ns});
  }
  void Counters(uint64_t at_ns, const StatsSnapshot& s, uint64_t gc_freed,
                int64_t sealed) {
    counters_.push_back({at_ns, s.commits, s.seq_stall_ns, s.cc_stall_ns,
                         s.exec_stall_ns, s.log_stall_ns, s.log_bytes,
                         s.log_fsyncs, gc_freed, sealed});
  }

  bool Write(const std::string& path, const std::string& provenance) const {
    std::ofstream out(path);
    out << "{\"otherData\":" << provenance << ",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
      if (!first) out << ",\n";
      first = false;
    };
    for (const SpanRec& s : spans_) {
      sep();
      out << "{\"name\":\"" << s.name << "\",\"cat\":\"bench\",\"ph\":\"X\","
          << "\"pid\":1,\"tid\":1,\"ts\":" << Us(s.begin)
          << ",\"dur\":" << static_cast<double>(s.end - s.begin) / 1e3 << "}";
    }
    // One async track per sampled txn: txn = due -> end of Run(), with
    // children client.wait (due -> Submit), submit (inside SubmitBorrowed)
    // and engine (Submit returned -> end of Run()).
    auto async = [&](const char* name, char ph, uint64_t id, uint64_t at) {
      sep();
      out << "{\"name\":\"" << name << "\",\"cat\":\"txn\",\"ph\":\"" << ph
          << "\",\"id\":" << id << ",\"pid\":1,\"tid\":2,\"ts\":" << Us(at)
          << "}";
    };
    for (const TxnRec& t : txns_) {
      async("txn", 'b', t.id, t.due);
      async("client.wait", 'b', t.id, t.due);
      async("client.wait", 'e', t.id, t.submit_begin);
      async("submit", 'b', t.id, t.submit_begin);
      async("submit", 'e', t.id, t.submit_end);
      async("engine", 'b', t.id, t.submit_end);
      async("engine", 'e', t.id, t.done);
      async("txn", 'e', t.id, t.done);
    }
    for (const CounterRec& c : counters_) {
      sep();
      out << "{\"name\":\"commits\",\"ph\":\"C\",\"pid\":1,\"ts\":"
          << Us(c.at) << ",\"args\":{\"commits\":" << c.commits
          << ",\"sealed_batches\":" << c.sealed + 1
          << ",\"gc_freed_versions\":" << c.gc_freed << "}},\n";
      out << "{\"name\":\"stall_ms\",\"ph\":\"C\",\"pid\":1,\"ts\":"
          << Us(c.at) << ",\"args\":{\"sequencer\":" << c.seq_stall / 1e6
          << ",\"cc\":" << c.cc_stall / 1e6
          << ",\"exec\":" << c.exec_stall / 1e6
          << ",\"log\":" << c.log_stall / 1e6 << "}},\n";
      out << "{\"name\":\"log\",\"ph\":\"C\",\"pid\":1,\"ts\":" << Us(c.at)
          << ",\"args\":{\"bytes\":" << c.log_bytes
          << ",\"fsyncs\":" << c.log_fsyncs << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct SpanRec {
    const char* name;
    uint64_t begin, end;
  };
  struct TxnRec {
    uint64_t id, due, submit_begin, submit_end, done;
  };
  struct CounterRec {
    uint64_t at, commits, seq_stall, cc_stall, exec_stall, log_stall,
        log_bytes, log_fsyncs, gc_freed;
    int64_t sealed;
  };

  double Us(uint64_t ns) const {
    return static_cast<double>(ns - origin_) / 1e3;
  }

  uint64_t origin_;
  std::vector<SpanRec> spans_;
  std::vector<TxnRec> txns_;
  std::vector<CounterRec> counters_;
};

// ---------------------------------------------------------------------------
// One pass: set up, drive, drain, check
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct PassResult {
  bool correct = true;
  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t latency_samples = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Fail(std::string why) {
    correct = false;
    if (!failure.empty()) failure += "; ";
    failure += std::move(why);
  }
};

struct Context {
  const Workload* w;
  const Scale* scale;
  double seconds;
  uint64_t seed;
  std::string out_dir;
  int64_t expect_offset;  // self-check: deliberately wrong expected sum
  ClientAffinity* affinity;
};

[[noreturn]] void Fatal(const std::string& what, const Status& st) {
  std::fprintf(stderr, "bohm_perf: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

BohmConfig EngineConfig(const Context& ctx, const std::string& log_dir) {
  BohmConfig cfg;  // engine defaults: batch 256, depth 4, GC + annotation on
  cfg.cc_threads = 1;
  cfg.exec_threads = 1;
  if (ctx.w->durable) {
    cfg.durability.enabled = true;
    cfg.durability.dir = log_dir;
    cfg.durability.fsync_policy = bohm::FsyncPolicy::kGroup;
    cfg.durability.group_size = 8;
    // Commits are acknowledged before their batch is durable. With the
    // durable-ack gate on, every batch waits for an fsync of the shared VM
    // disk, whose latency rose to ~6 ms for seconds at a time: throughput
    // then fell to ~85K txn/s in about one run in ten, and the spread between
    // runs exceeded every usable bound. Without the gate the writer still
    // fsyncs every group of up to 8 batches on the same disk, and a slow disk
    // shows as writer-ring back-pressure (log.stall_frac).
    cfg.durability.durable_ack = false;
  }
  return cfg;
}

YcsbConfig TableConfig(const Context& ctx) {
  return TableConfig(*ctx.w, *ctx.scale);
}

struct SetupTimes {
  double construct_s = 0, load_s = 0, start_s = 0;
  double total() const { return construct_s + load_s + start_s; }
};

std::unique_ptr<BohmEngine> ConstructAndLoad(const Context& ctx,
                                             const BohmConfig& cfg,
                                             SetupTimes* times,
                                             Tracer* tracer) {
  const YcsbConfig ycfg = TableConfig(ctx);
  const uint64_t t0 = MonotonicNanos();
  auto engine = std::make_unique<BohmEngine>(bohm::YcsbCatalog(ycfg), cfg);
  const uint64_t t1 = MonotonicNanos();
  Status st = bohm::YcsbLoad(ycfg, [&](bohm::TableId t, bohm::Key k,
                                       const void* payload) {
    return engine->Load(t, k, payload);
  });
  if (!st.ok()) Fatal("Load", st);
  const uint64_t t2 = MonotonicNanos();
  times->construct_s = Seconds(t1 - t0);
  times->load_s = Seconds(t2 - t1);
  if (tracer != nullptr) tracer->Span("setup.load", t1, t2);
  return engine;
}

void StartEngine(BohmEngine* engine, SetupTimes* times, Tracer* tracer) {
  const uint64_t t0 = MonotonicNanos();
  Status st = engine->Start();
  if (!st.ok()) Fatal("Start", st);
  const uint64_t t1 = MonotonicNanos();
  times->start_s = Seconds(t1 - t0);
  if (tracer != nullptr) tracer->Span("setup.start", t0, t1);
}

// Correctness gate: every committed txn incremented the 64-bit counter
// prefix of exactly `writes_per_txn` records, so their sum over all records
// must equal writes_per_txn x acknowledged commits.
void CheckCounterSum(const Context& ctx, const BohmEngine& engine,
                     uint64_t commits, const char* stage, PassResult* r) {
  const uint64_t records = TableConfig(ctx).record_count;
  std::vector<char> buf(kRecordSize);
  uint64_t sum = 0;
  for (uint64_t k = 0; k < records; ++k) {
    Status st = engine.ReadLatest(bohm::kYcsbTableId, static_cast<bohm::Key>(k),
                                  buf.data());
    if (!st.ok()) {
      r->Fail(std::string(stage) + ": record " + std::to_string(k) +
              " unreadable: " + st.ToString());
      return;
    }
    uint64_t counter = 0;
    std::memcpy(&counter, buf.data(), sizeof(counter));
    sum += counter;
  }
  const int64_t expected =
      static_cast<int64_t>(ctx.w->writes_per_txn * commits) +
      ctx.expect_offset;
  if (static_cast<int64_t>(sum) != expected) {
    r->Fail(std::string(stage) + ": counter sum " + std::to_string(sum) +
            " != expected " + std::to_string(expected));
  }
}

// One sample point of the window, about every kSliceNs. `samples` is the
// number of window submissions made before it, so the latency samples of
// the slice ending here are [previous.samples, samples).
struct Slice {
  uint64_t at_ns, commits, process_cpu_ns, samples;
};

PassResult RunPass(const Context& ctx, Inputs& in, bool traced,
                   std::string* trace_json_out) {
  PassResult r;
  const Workload& w = *ctx.w;
  const bool open = w.open_loop;
  const size_t pool = in.pool.size();
  const uint64_t warmup_ns = static_cast<uint64_t>(ctx.scale->warmup_s * 1e9);
  const uint64_t window_ns = static_cast<uint64_t>(ctx.seconds * 1e9);
  const uint64_t pass_origin = MonotonicNanos();
  std::unique_ptr<Tracer> tracer =
      traced ? std::make_unique<Tracer>(pass_origin) : nullptr;

  // codec layer: encode the run's inputs (outside every other interval).
  double encode_ns_per_txn = 0;
  if (traced && in.pool[0]->codec_id() != bohm::kNotLoggable) {
    std::string buf;
    buf.reserve(4096);
    const uint64_t t0 = MonotonicNanos();
    for (const auto& t : in.pool) {
      buf.clear();
      bohm::EncodeTxn(&buf, t->inner());
    }
    const uint64_t t1 = MonotonicNanos();
    tracer->Span("encode", t0, t1);
    encode_ns_per_txn = static_cast<double>(t1 - t0) / static_cast<double>(pool);
  }

  // Per-submission client records, allocated and touched before the RSS
  // baseline so they are not counted as engine memory.
  size_t window_capacity =
      open ? in.arrival_ns.size()
           : static_cast<size_t>(kMaxClosedTps * ctx.seconds) + 1;
  std::vector<uint32_t> latency_ns(window_capacity, 0);
  std::vector<uint32_t> lag_ns(traced ? window_capacity : 0, 0);
  std::vector<Slice> slices;
  slices.reserve(static_cast<size_t>(ctx.seconds * 1e9 / kSliceNs) + 16);

  const std::string log_dir =
      ctx.out_dir + "/log-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(log_dir, ec);
  const BohmConfig cfg = EngineConfig(ctx, log_dir);

  // Hand memory freed by an earlier pass back to the OS first, so the
  // baseline is comparable between passes.
  malloc_trim(0);
  const uint64_t rss_before = ResidentBytes();
  std::vector<SetupTimes> setups(1);
  std::unique_ptr<BohmEngine> engine =
      ConstructAndLoad(ctx, cfg, &setups[0], tracer.get());
  ctx.affinity->PinTo(1 + cfg.cc_threads + cfg.exec_threads);
  StartEngine(engine.get(), &setups[0], tracer.get());

  // ---- drive: warm-up, then the measured window ----
  const uint64_t start = MonotonicNanos();
  const uint64_t window_begin = start + warmup_ns;
  const uint64_t window_end = window_begin + window_ns;
  uint64_t next_slice = window_begin;
  uint64_t first_window_k = UINT64_MAX;  // first submission due in window
  uint64_t window_submissions = 0;
  uint64_t rejected = 0;
  uint64_t blocked_ns = 0;  // client time inside SubmitBorrowed, window only
  uint64_t client_cpu_begin = 0, client_cpu_end = 0;
  StatsSnapshot s_begin, s_end;
  uint64_t gc_begin = 0, gc_end = 0;
  int64_t sealed_begin = 0, sealed_end = 0;
  uint64_t rss_window_end = 0;
  bool window_closed = false;

  auto close_window = [&](uint64_t now) {
    s_end = engine->Stats();
    gc_end = engine->gc_freed_versions();
    sealed_end = engine->last_sealed_batch();
    client_cpu_end = ThreadCpuNs();
    slices.push_back({now, s_end.commits, ProcessCpuNs(), window_submissions});
    rss_window_end = ResidentBytes();
    window_closed = true;
  };
  auto take_slice = [&](uint64_t now) {
    if (slices.empty()) {
      s_begin = engine->Stats();
      gc_begin = engine->gc_freed_versions();
      sealed_begin = engine->last_sealed_batch();
      client_cpu_begin = ThreadCpuNs();
      slices.push_back({now, s_begin.commits, ProcessCpuNs(), 0});
      if (tracer) tracer->Counters(now, s_begin, gc_begin, sealed_begin);
      return;
    }
    StatsSnapshot s = engine->Stats();
    slices.push_back({now, s.commits, ProcessCpuNs(), window_submissions});
    if (tracer) {
      tracer->Counters(now, s, engine->gc_freed_versions(),
                       engine->last_sealed_batch());
    }
  };
  // Collects submission k's outcome once the engine is done with it.
  auto harvest = [&](uint64_t k, const TimedTxn& t) {
    const uint64_t done = t.rejected ? UINT64_MAX : t.AwaitDone();
    if (k < first_window_k || k - first_window_k >= window_submissions) return;
    const uint64_t i = k - first_window_k;
    // A refused submission counts as missing every latency limit.
    const uint64_t lat = done == UINT64_MAX ? UINT32_MAX : done - t.due_ns;
    latency_ns[i] = static_cast<uint32_t>(std::min<uint64_t>(lat, UINT32_MAX));
    if (tracer && !t.rejected && k % kTraceEvery == 0) tracer->Txn(k, t, done);
  };

  uint64_t k = 0;
  for (;; ++k) {
    uint64_t now = MonotonicNanos();
    uint64_t due;
    if (open) {
      if (k == in.arrival_ns.size()) break;
      due = start + in.arrival_ns[k];
      while (now < due) {
        bohm::CpuRelax();
        now = MonotonicNanos();
      }
    } else {
      if (now >= window_end) break;
      due = now;
    }
    if (now >= next_slice && !window_closed) {
      if (now >= window_end) {
        close_window(now);
      } else {
        take_slice(now);
        next_slice += kSliceNs;
      }
    }
    TimedTxn& txn = *in.pool[k % pool];
    if (k >= pool) harvest(k - pool, txn);
    txn.Arm(due);
    const bool in_window = due >= window_begin && due < window_end;
    if (in_window) {
      if (first_window_k == UINT64_MAX) first_window_k = k;
      if (window_submissions == window_capacity) break;  // sample store full
      ++window_submissions;
    }
    if (traced) txn.submit_begin_ns = MonotonicNanos();
    Status st = engine->SubmitBorrowed(&txn);
    if (traced) {
      txn.submit_end_ns = MonotonicNanos();
      if (in_window) {
        blocked_ns += txn.submit_end_ns - txn.submit_begin_ns;
        lag_ns[k - first_window_k] = static_cast<uint32_t>(std::min<uint64_t>(
            txn.submit_begin_ns - due, UINT32_MAX));
      }
    }
    if (!st.ok()) {
      txn.rejected = true;
      ++rejected;
    }
  }
  const uint64_t submissions = k;
  if (!window_closed) close_window(MonotonicNanos());
  ctx.affinity->Release();

  // ---- drain ----
  const uint64_t drain_begin = MonotonicNanos();
  const uint64_t accepted = submissions - rejected;
  const uint64_t drain_deadline = drain_begin + 30'000'000'000ull;
  uint64_t completed = engine->Stats().commits;
  while (completed < accepted && MonotonicNanos() < drain_deadline) {
    usleep(1000);
    completed = engine->Stats().commits;
  }
  if (completed < accepted) {
    // The engine lost or wedged transactions; its threads cannot be joined,
    // so the result is reported from here and the process ends at once.
    std::printf("# CORRECTNESS FAILURE: %" PRIu64 " of %" PRIu64
                " accepted txns not completed by the drain\n"
                "{\"correct\": false, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {}}\n",
                accepted - completed, accepted, submissions,
                rejected + accepted - completed);
    std::fflush(nullptr);
    std::_Exit(1);
  }
  engine->WaitForIdle();
  const uint64_t drain_end = MonotonicNanos();
  if (tracer) tracer->Span("drain", drain_begin, drain_end);
  for (uint64_t j = submissions > pool ? submissions - pool : 0;
       j < submissions; ++j) {
    harvest(j, *in.pool[j % pool]);
  }
  const StatsSnapshot s_final = engine->Stats();
  r.attempted = submissions;
  r.failed = rejected + (accepted - s_final.commits);
  if (r.failed != 0) {
    r.Fail(std::to_string(r.failed) + " of " +
           std::to_string(submissions) + " submissions failed");
  }
  CheckCounterSum(ctx, *engine, s_final.commits, "after drain", &r);

  // ---- durable: restart from the log this run wrote ----
  double scan_s = 0, replay_s = 0, recovery_tps = 0;
  if (w.durable) {
    engine->Stop();
    engine.reset();
    if (traced) {
      std::vector<bohm::ReplayedBatch> batches;
      bohm::LogScanStats scan;
      const uint64_t t0 = MonotonicNanos();
      Status st = bohm::ReadBatchLog(log_dir, bohm::LogEnv::Default(),
                                     &batches, &scan);
      const uint64_t t1 = MonotonicNanos();
      if (!st.ok()) Fatal("ReadBatchLog", st);
      tracer->Span("recovery.scan", t0, t1);
      scan_s = Seconds(t1 - t0);
    }
    SetupTimes unused;
    std::unique_ptr<BohmEngine> recovered =
        ConstructAndLoad(ctx, cfg, &unused, nullptr);
    const uint64_t t0 = MonotonicNanos();
    Status st = recovered->Recover();
    if (!st.ok()) Fatal("Recover", st);
    recovered->WaitForIdle();
    const uint64_t t1 = MonotonicNanos();
    if (tracer) tracer->Span("recovery.replay", t0, t1);
    const double recover_s = Seconds(t1 - t0);
    replay_s = std::max(0.0, recover_s - scan_s);
    const uint64_t replayed = recovered->recovery_stats().txns;
    recovery_tps = Ratio(static_cast<double>(replayed), recover_s);
    if (replayed != s_final.commits) {
      r.Fail("recovery replayed " + std::to_string(replayed) + " txns, " +
             std::to_string(s_final.commits) + " were acknowledged");
    }
    CheckCounterSum(ctx, *recovered, s_final.commits, "after Recover()", &r);
    recovered.reset();
  }
  engine.reset();
  std::filesystem::remove_all(log_dir, ec);

  // ---- warm set-ups, on memory the engines above freed, for setup_s ----
  for (int i = 1; i < ctx.scale->setups; ++i) {
    const std::string dir = log_dir + "-setup" + std::to_string(i);
    SetupTimes t;
    auto e = ConstructAndLoad(ctx, EngineConfig(ctx, dir), &t, nullptr);
    StartEngine(e.get(), &t, nullptr);
    e.reset();
    std::filesystem::remove_all(dir, ec);
    setups.push_back(t);
  }

  // ---- metrics ----
  // Every end-to-end rate and latency is the median over the window's
  // slices, so a rare stall of the shared host moves a few slices and not
  // the reported figure. The tail (p99) is dominated by such stalls and
  // does not repeat between runs; it is a per-layer diagnostic over the
  // whole window.
  const double window_s = Seconds(slices.back().at_ns - slices.front().at_ns);
  std::vector<double> tps, cpu_per_txn, p50s;
  for (size_t i = 1; i < slices.size(); ++i) {
    const double dt = Seconds(slices[i].at_ns - slices[i - 1].at_ns);
    const double dc =
        static_cast<double>(slices[i].commits - slices[i - 1].commits);
    // A tail slice much shorter than kSliceNs would only add noise.
    if (dt < 0.5 * Seconds(kSliceNs)) continue;
    tps.push_back(dc / dt);
    cpu_per_txn.push_back(Ratio(
        static_cast<double>(slices[i].process_cpu_ns -
                            slices[i - 1].process_cpu_ns) / 1e3,
        dc));
    std::vector<uint32_t> lat(
        latency_ns.begin() + static_cast<ptrdiff_t>(slices[i - 1].samples),
        latency_ns.begin() + static_cast<ptrdiff_t>(slices[i].samples));
    if (lat.empty()) continue;
    p50s.push_back(Percentile(lat, 0.50) / 1e3);
  }
  latency_ns.resize(window_submissions);
  r.latency_samples = window_submissions;
  const double p99 = Percentile(latency_ns, 0.99) / 1e3;
  std::vector<double> construct, load, start_t, total;
  for (size_t i = 1; i < setups.size(); ++i) {
    const SetupTimes& t = setups[i];
    construct.push_back(t.construct_s);
    load.push_back(t.load_s);
    start_t.push_back(t.start_s);
    total.push_back(t.total());
  }
  r.end_to_end = {
      {"throughput_tps", Median(tps), "txn/s"},
      {"latency_p50_us", Median(p50s), "us"},
      {"cpu_us_per_txn", Median(cpu_per_txn), "us"},
      {"rss_mb",
       static_cast<double>(rss_window_end - rss_before) / (1024.0 * 1024.0),
       "MiB"},
      {"setup_s", Median(total), "s"},
  };

  const double window_commits = static_cast<double>(s_end.commits - s_begin.commits);
  const double window_writes = static_cast<double>(s_end.writes - s_begin.writes);
  const double window_ns_d = window_s * 1e9;
  const double process_cpu_ns = static_cast<double>(
      slices.back().process_cpu_ns - slices.front().process_cpu_ns);
  const double client_cpu_ns =
      static_cast<double>(client_cpu_end - client_cpu_begin);
  lag_ns.resize(traced ? window_submissions : 0);
  const bohm::Histogram exec_lat =
      bohm::Histogram::Delta(s_end.latency_us, s_begin.latency_us);
  r.per_layer = {
      {"submit.blocked_frac", Ratio(static_cast<double>(blocked_ns), window_ns_d),
       "ratio"},
      {"client.lag_p99_us", Percentile(lag_ns, 0.99) / 1e3, "us"},
      {"client.latency_samples", static_cast<double>(window_submissions),
       "count"},
      {"latency_p99_us", p99, "us"},
      {"sequencer.stall_frac",
       Ratio(static_cast<double>(s_end.seq_stall_ns - s_begin.seq_stall_ns),
             window_ns_d),
       "ratio"},
      {"sequencer.txns_per_batch",
       Ratio(window_commits, static_cast<double>(sealed_end - sealed_begin)),
       "txn"},
      {"cc.stall_frac",
       Ratio(static_cast<double>(s_end.cc_stall_ns - s_begin.cc_stall_ns),
             cfg.cc_threads * window_ns_d),
       "ratio"},
      {"exec.stall_frac",
       Ratio(static_cast<double>(s_end.exec_stall_ns - s_begin.exec_stall_ns),
             cfg.exec_threads * window_ns_d),
       "ratio"},
      {"exec.latency_p50_us", static_cast<double>(exec_lat.Percentile(0.5)),
       "us"},
      {"exec.reads_per_txn",
       Ratio(static_cast<double>(s_final.reads),
             static_cast<double>(s_final.commits)),
       "count"},
      {"exec.writes_per_txn",
       Ratio(static_cast<double>(s_final.writes),
             static_cast<double>(s_final.commits)),
       "count"},
      {"gc.freed_per_write",
       Ratio(static_cast<double>(gc_end - gc_begin), window_writes), "ratio"},
      {"engine.cpu_cores", Ratio(process_cpu_ns - client_cpu_ns, window_ns_d),
       "cores"},
      {"log.bytes_per_txn",
       Ratio(static_cast<double>(s_end.log_bytes - s_begin.log_bytes),
             window_commits),
       "B"},
      {"log.txns_per_fsync",
       Ratio(window_commits,
             static_cast<double>(s_end.log_fsyncs - s_begin.log_fsyncs)),
       "txn"},
      {"log.stall_frac",
       Ratio(static_cast<double>(s_end.log_stall_ns - s_begin.log_stall_ns),
             window_ns_d),
       "ratio"},
      {"codec.encode_ns_per_txn", encode_ns_per_txn, "ns"},
      {"recovery.scan_s", scan_s, "s"},
      {"recovery.replay_s", replay_s, "s"},
      {"recovery_tps", recovery_tps, "txn/s"},
      {"setup.cold_s", setups[0].total(), "s"},
      {"setup.construct_s", Median(construct), "s"},
      {"setup.load_s", Median(load), "s"},
      {"setup.start_s", Median(start_t), "s"},
  };

  if (tracer) {
    std::ostringstream os;
    os << "{\"workload\":\"" << w.name << "\",\"seed\":" << ctx.seed
       << ",\"trace_every\":" << kTraceEvery << "}";
    *trace_json_out = ctx.out_dir + "/trace-" + w.name + "-seed" +
                      std::to_string(ctx.seed) + ".json";
    if (!tracer->Write(*trace_json_out, os.str())) {
      std::fprintf(stderr, "bohm_perf: cannot write %s\n",
                   trace_json_out->c_str());
      std::exit(2);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string ProvenanceJson(const Context& ctx, bool traced,
                           const PassResult& r, double generate_s) {
  const Workload& w = *ctx.w;
  const BohmConfig cfg = EngineConfig(ctx, "");
  const unsigned engine_threads = 1 + cfg.cc_threads + cfg.exec_threads;
  const unsigned log_threads = w.durable ? 1 : 0;
  const unsigned total = 1 + engine_threads + log_threads;
  const bool engine_pinned = cfg.pin_threads && bohm::ShouldPin(engine_threads);
  const bool client_pinned = ctx.affinity->pinned();
  std::ostringstream os;
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << ctx.seed
     << ", \"seconds\": " << ctx.seconds << ", \"warmup_s\": "
     << ctx.scale->warmup_s << ", \"trace\": " << (traced ? 1 : 0)
     << ", \"scale\": \"" << (ctx.scale == &kTinyScale ? "tiny" : "full")
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"ndebug\": true, \"compiler\": \"" << __VERSION__
     << "\", \"nproc\": " << bohm::HardwareConcurrency()
     << ", \"allowed_cpus\": " << ctx.affinity->allowed()
     << ", \"threads\": {\"client\": 1, \"sequencer\": 1, \"cc\": "
     << cfg.cc_threads << ", \"exec\": " << cfg.exec_threads
     << ", \"log_writer\": " << log_threads << ", \"total\": " << total
     << "}, \"engine_threads_pinned\": " << (engine_pinned ? "true" : "false")
     << ", \"client_pinned\": " << (client_pinned ? "true" : "false")
     << ", \"log_writer_pinned\": "
     << (w.durable && client_pinned ? "true" : "false")
     << ", \"loop\": \"" << (w.open_loop ? "open" : "closed")
     << "\", \"offered_tps\": "
     << (w.open_loop ? Num(w.offered_tps * ctx.scale->rate_factor) : "null")
     << ", \"records\": " << TableConfig(ctx).record_count
     << ", \"record_size\": " << kRecordSize << ", \"theta\": " << w.theta
     << ", \"batch_size\": " << cfg.batch_size
     << ", \"pipeline_depth\": " << cfg.pipeline_depth
     << ", \"gc\": " << (cfg.gc_enabled ? "true" : "false")
     << ", \"read_annotation\": " << (cfg.read_annotation ? "true" : "false")
     << ", \"input_queue_capacity\": " << cfg.input_queue_capacity
     << ", \"durable\": " << (w.durable ? "true" : "false")
     << ", \"fsync\": \"" << (w.durable ? "group(8)" : "none")
     << "\", \"durable_ack\": "
     << (cfg.durability.durable_ack ? "true" : "false")
     << ", \"input_pool\": " << ctx.scale->pool
     << ", \"generate_s\": " << Num(generate_s)
     << ", \"latency_samples\": " << r.latency_samples
     << ", \"setups\": " << ctx.scale->setups << "}";
  return os.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: bohm_perf --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--scale full|tiny] "
               "[--expect-offset K]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, out_dir = ".", scale_name = "full";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int64_t expect_offset = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (arg == "--out-dir") {
      out_dir = val;
    } else if (arg == "--scale") {
      scale_name = val;
    } else if (arg == "--expect-offset") {
      expect_offset = std::strtoll(val.c_str(), nullptr, 10);
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || !(seconds > 0) || (trace != 0 && trace != 1) ||
      (scale_name != "full" && scale_name != "tiny")) {
    return Usage();
  }
#ifdef PERFBENCH_UNFIT_BUILD
  std::fprintf(stderr,
               "bohm_perf: refusing to report numbers from a %s build without "
               "NDEBUG or with a sanitizer; rebuild as Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  // Memory an engine frees stays with the process (malloc_trim before each
  // RSS baseline still returns it), so the set-ups after the measured one
  // time the engine's own work. Faulting in fresh pages is the kernel's and
  // the hypervisor's work; on a shared VM its cost drifts by a third between
  // runs. The measured run's own set-up, page faults included, is reported
  // as setup.cold_s.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::filesystem::create_directories(out_dir);
  ClientAffinity affinity;
  const Scale& scale = scale_name == "tiny" ? kTinyScale : kFullScale;
  Context ctx{w, &scale, seconds, seed, out_dir, expect_offset, &affinity};

  Inputs in = Generate(*w, scale, seed, seconds);
  std::string trace_path;
  PassResult result = RunPass(ctx, in, /*traced=*/false, nullptr);
  std::vector<Metric> reported = result.end_to_end;
  if (trace == 1) {
    PassResult traced = RunPass(ctx, in, /*traced=*/true, &trace_path);
    reported = traced.per_layer;
    // Tracing overhead: how much worse the traced pass read, as a share of
    // the untraced value (throughput is the one higher-is-better metric).
    for (size_t i = 0; i < traced.end_to_end.size(); ++i) {
      const Metric& base = result.end_to_end[i];
      const double worse = traced.end_to_end[i].value - base.value;
      reported.push_back(
          {"trace.overhead." + base.name,
           Ratio(base.name == "throughput_tps" ? -worse : worse, base.value),
           "ratio"});
    }
    if (!traced.correct) result.Fail("traced pass: " + traced.failure);
    result.attempted += traced.attempted;
    result.failed += traced.failed;
  }

  std::printf("{\"provenance\": %s}\n",
              ProvenanceJson(ctx, trace == 1, result, in.generate_s).c_str());
  // Human-readable summary. recovery_tps is a per-layer metric in the
  // result (only this workload writes a log) but a user-visible figure.
  for (const Metric& m : result.end_to_end) {
    std::printf("# %-24s %18.3f %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const Metric& m : result.per_layer) {
    if (w->durable && m.name == "recovery_tps") {
      std::printf("# %-24s %18.3f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  if (!trace_path.empty()) std::printf("# trace: %s\n", trace_path.c_str());
  if (!result.correct) {
    std::printf("# CORRECTNESS FAILURE: %s\n", result.failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, MetricsJson(reported).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
